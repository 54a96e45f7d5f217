package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"diffusearch/bench/kit"
	"diffusearch/internal/embed"
	"diffusearch/internal/gengraph"
	"diffusearch/internal/graph"
	"diffusearch/internal/peernet"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/serve"
	"diffusearch/internal/stats"
)

// clientID is the driver's own peer: it holds no documents, neighbours
// peers 0 and 6, and is the origin of every query.
const clientID = overlayPeers

var clientNeighbors = []graph.NodeID{0, overlayPeers / 2}

// overlay is one live deployment: overlayPeers peerd processes on loopback
// plus the driver's client peer.
type overlay struct {
	c   *runCtx
	dir string // topology file and per-peer logs

	vocab  *embed.Vocabulary
	pairs  []embed.QueryPair
	gold   []retrieval.DocID // per pair, the centralized search's top-1 over the placed documents
	placed map[retrieval.DocID]bool
	stream []int // pair index of request i, seeded

	addrs []string            // peer id → address (client last)
	admin []string            // peer id → -admin address; traced runs only
	nbrs  [][]graph.NodeID    // base topology, client included
	docs  [][]retrieval.DocID // per peer
	chord [2]graph.NodeID     // the edge overlay_churn toggles
	on    bool                // whether the chord is currently in the topology file

	procs  []*exec.Cmd
	tr     *peernet.TCPTransport
	client *peernet.Peer

	gate      sync.Mutex // see spaceOut
	lastStart time.Time

	probes        int     // probe queries issued before the deployment counted as ready
	readyMS       float64 // first child started → client ready
	gossipToReady float64 // messages every peer had sent when gossip went quiet (traced)
	reloads       int
	staleMax      int
}

// peerdBin is where bench/run.sh leaves the peerd it builds before the
// benchmark starts, so that set-up is timed from launch.
const peerdBin = buildDir + "/peerd"

// newOverlay generates the deployment's inputs from the seed: peerd's
// default vocabulary, the mined pairs, the document placement, the
// topology, and the request stream.
func newOverlay(c *runCtx) (*overlay, error) {
	o := &overlay{c: c, dir: filepath.Join(outDir, c.name), placed: make(map[retrieval.DocID]bool)}
	var err error
	// The same parameters cmd/peerd derives from -words, -dim and -seed.
	if o.vocab, err = embed.Synthetic(embed.SyntheticParams{
		Words: overlayWords, Dim: overlayDim, Clusters: overlayWords / 12, Spread: 0.55,
		CommonComponent: 0.6, Seed: c.seed,
	}); err != nil {
		return nil, err
	}
	mined, err := embed.MineBenchmark(o.vocab, overlayPairs, embed.DefaultGoldThreshold, c.seed)
	if err != nil {
		return nil, err
	}
	o.pairs = mined.Pairs

	r := randx.Derive(c.seed, "overlay", "placement")
	all := make([]retrieval.DocID, 0, overlayPeers*overlayDocsPerPeer)
	for _, p := range o.pairs {
		all = append(all, p.Gold)
	}
	all = append(all, mined.SamplePool(r, cap(all)-len(all))...)
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	o.docs = make([][]retrieval.DocID, overlayPeers)
	for i, d := range all {
		o.docs[i%overlayPeers] = append(o.docs[i%overlayPeers], d)
		o.placed[d] = true
	}
	central := retrieval.NewEngine(o.vocab, all)
	o.gold = make([]retrieval.DocID, len(o.pairs))
	for i, p := range o.pairs {
		o.gold[i] = central.Search(o.vocab.Vector(p.Query), 1, retrieval.DotProduct)[0].Doc
	}

	g := gengraph.WattsStrogatz(overlayPeers, 4, 0.2, overlayTopologySeed)
	o.nbrs = make([][]graph.NodeID, overlayPeers+1)
	for u := 0; u < overlayPeers; u++ {
		o.nbrs[u] = slices.Clone(g.Neighbors(u))
	}
	for _, v := range clientNeighbors {
		o.nbrs[v] = append(o.nbrs[v], clientID)
	}
	o.nbrs[clientID] = clientNeighbors
	// The churn chord joins two peers that are not entry points and not
	// already adjacent.
	perm := randx.Derive(c.seed, "overlay", "chord").Perm(overlayPeers)
	o.chord = [2]graph.NodeID{-1, -1}
pick:
	for _, a := range perm {
		for _, b := range perm {
			if a < b && !slices.Contains(clientNeighbors, a) && !slices.Contains(clientNeighbors, b) && !g.HasEdge(a, b) {
				o.chord = [2]graph.NodeID{a, b}
				break pick
			}
		}
	}
	if o.chord[0] < 0 {
		return nil, fmt.Errorf("no free chord in the %d-peer topology", overlayPeers)
	}

	qr := randx.Derive(c.seed, "overlay", "queries")
	o.stream = make([]int, 1<<14)
	for i := range o.stream {
		o.stream[i] = qr.IntN(len(o.pairs))
	}
	return o, nil
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// writeTopology renders the topology file (with or without the chord) and
// moves it into place, so a reloading peer never reads half a file.
func (o *overlay) writeTopology() error {
	var b strings.Builder
	for id, nb := range o.nbrs {
		nb = slices.Clone(nb)
		if o.on && id == o.chord[0] {
			nb = append(nb, o.chord[1])
		}
		if o.on && id == o.chord[1] {
			nb = append(nb, o.chord[0])
		}
		fmt.Fprintf(&b, "%d %s %s", id, o.addrs[id], joinInts(nb))
		if id < overlayPeers {
			fmt.Fprintf(&b, " %s", joinInts(o.docs[id]))
		}
		b.WriteByte('\n')
	}
	tmp := o.topoPath() + ".tmp"
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, o.topoPath())
}

func (o *overlay) topoPath() string { return filepath.Join(o.dir, "topology.txt") }
func (o *overlay) logPath(id int) string {
	return filepath.Join(o.dir, fmt.Sprintf("peer-%02d.log", id))
}
func (o *overlay) readLog(id int) []byte { b, _ := os.ReadFile(o.logPath(id)); return b }
func joinInts(xs []int) string {
	return strings.Trim(strings.ReplaceAll(fmt.Sprint(xs), " ", ","), "[]")
}
func (o *overlay) pairOf(i int) int        { return o.stream[i%len(o.stream)] }
func (o *overlay) queryOf(i int) []float64 { return o.vocab.Vector(o.pairs[o.pairOf(i)].Query) }

// launch starts the children and the client peer and returns once the
// deployment answers: every child listening, the client's gossip quiet,
// and two clean passes of probe queries over all pairs (the warm-up).
func (o *overlay) launch(bin string) error {
	err := os.MkdirAll(o.dir, 0o755)
	if err != nil {
		return err
	}
	if o.tr, err = peernet.ListenTCP(clientID, "127.0.0.1:0"); err != nil {
		return err
	}
	n := overlayPeers
	if o.c.traced() {
		n *= 2
	}
	free, err := freeAddrs(n)
	if err != nil {
		return err
	}
	o.addrs = append(free[:overlayPeers:overlayPeers], o.tr.Addr())
	if o.c.traced() {
		o.admin = free[overlayPeers:]
	}
	if err := o.writeTopology(); err != nil {
		return err
	}

	launched := time.Now()
	for id := 0; id < overlayPeers; id++ {
		logf, err := os.Create(o.logPath(id))
		if err != nil {
			return err
		}
		args := []string{"-topology", o.topoPath(), "-id", strconv.Itoa(id), "-engine", "parallel",
			"-seed", strconv.FormatUint(o.c.seed, 10), "-words", strconv.Itoa(overlayWords), "-dim", strconv.Itoa(overlayDim)}
		if o.c.traced() {
			args = append(args, "-admin", o.admin[id])
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// Its own process group, so a stray signal to the driver's group
		// does not reach it and stop() can signal it as a unit.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		err = cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			return err
		}
		o.procs = append(o.procs, cmd)
	}
	if err := o.waitListening(); err != nil {
		return err
	}

	dir := make(map[graph.NodeID]string, len(o.addrs))
	for id, a := range o.addrs {
		dir[id] = a
	}
	o.tr.SetDirectory(dir)
	var tr peernet.Transport = o.tr
	if o.c.traced() {
		tr = &countingTransport{Transport: o.tr, rec: o.c.rec}
	}
	// The filter sizes are peerd's flag defaults.
	if o.client, err = peernet.NewPeer(peernet.PeerConfig{
		ID: clientID, Neighbors: clientNeighbors, Vocab: o.vocab, Alpha: alpha,
		Filter: peernet.FilterConfig{Bits: 1024, Hashes: 4, QueryKeys: 8},
	}, tr); err != nil {
		return err
	}
	o.client.Start()
	if err := o.waitQuiet(); err != nil {
		return err
	}
	if o.c.traced() {
		for _, s := range o.scrapeAll() {
			o.gossipToReady += float64(s.Messages)
		}
		_, sent := o.client.Stats()
		o.gossipToReady += float64(sent)
	}
	if err := o.probe(); err != nil {
		return err
	}
	o.readyMS = ms(time.Since(launched))
	return nil
}

// waitListening polls the children's logs for the line peerd prints once
// its transport is bound.
func (o *overlay) waitListening() error {
	deadline := time.Now().Add(20 * time.Second)
	for id := 0; id < overlayPeers; {
		if bytes.Contains(o.readLog(id), []byte("listening on")) {
			id++
			continue
		}
		if time.Now().After(deadline) || o.c.ctx.Err() != nil {
			return fmt.Errorf("peer %d is not listening; its log: %s", id, o.readLog(id))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// waitQuiet waits until the client peer has applied gossip and its update
// counter has stood still for 50 ms (25 gossip intervals).
func (o *overlay) waitQuiet() error {
	deadline := time.Now().Add(20 * time.Second)
	last, since := int64(-1), time.Now()
	for {
		updates, _ := o.client.Stats()
		if updates != last {
			last, since = updates, time.Now()
		} else if updates > 0 && time.Since(since) >= 50*time.Millisecond {
			return nil
		}
		if time.Now().After(deadline) || o.c.ctx.Err() != nil {
			return fmt.Errorf("client gossip did not go quiet (%d updates)", updates)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// probe queries every pair until two passes in a row answer without
// error. The passes also fill every peer's score cache along the walks.
func (o *overlay) probe() error {
	clean := 0
	for pass := 0; pass < 8 && clean < 2; pass++ {
		clean++
		for i := range o.pairs {
			o.probes++
			if _, err := o.client.Query(o.vocab.Vector(o.pairs[i].Query), overlayTTL, overlayK, overlayTimeout); err != nil {
				clean = 0
			}
		}
		if o.c.ctx.Err() != nil {
			break
		}
	}
	if clean < 2 {
		return fmt.Errorf("probe queries kept failing")
	}
	return nil
}

// spaceOut keeps the starts of two Peer.Query calls at least queryGap apart.
// Peer.Query names a query after the nanosecond it started in, so two calls
// that read the same clock value share one name: the first loses its answer
// to the second and times out, and the answer nobody waits for is then sent
// from the origin to itself without end (README.md, "Bugs met"). The gap
// makes that coincidence need a preemption of exactly its length.
func (o *overlay) spaceOut() {
	o.gate.Lock()
	defer o.gate.Unlock()
	for time.Since(o.lastStart) < queryGap {
	}
	o.lastStart = time.Now()
}

// query issues request i and checks the answer: every result must be a
// placed document carrying exactly the score the query gives it, best
// first. hit reports whether the walk's top-1 is the centralized top-1.
func (o *overlay) query(m *measurement, i int) (ok, hit bool) {
	q := o.queryOf(i)
	o.spaceOut()
	res, err := o.client.Query(q, overlayTTL, overlayK, overlayTimeout)
	if err != nil || len(res) == 0 {
		m.notef("request %d: %d results, error %v", i, len(res), err)
		return false, false
	}
	for j, r := range res {
		want := retrieval.DotProduct.Score(q, o.vocab.Vector(r.Doc))
		if !o.placed[r.Doc] || math.Abs(r.Score-want) > 1e-9 || (j > 0 && r.Score > res[j-1].Score) {
			m.problemf("request %d: result %d is doc %d score %g (placed %t, true score %g)", i, j, r.Doc, r.Score, o.placed[r.Doc], want)
			return false, false
		}
	}
	return true, res[0].Doc == o.gold[o.pairOf(i)]
}

// rewire is one write of overlay_churn: it toggles the chord in the topology
// file and SIGHUPs every peer. It runs at the start of every phase, so each
// round of the load carries the same two reloads and the least disturbed
// round still pays for them.
func (o *overlay) rewire(m *measurement) {
	o.on = !o.on
	if err := o.writeTopology(); err != nil {
		m.problemf("rewire: %v", err)
		return
	}
	for _, p := range o.procs {
		_ = p.Process.Signal(syscall.SIGHUP) // a dead peer shows as failed queries
	}
	o.reloads++
	if o.c.traced() {
		// Filters are stale from the reload until the next gossip round
		// re-proves them; look while they still are.
		stale := 0
		for _, s := range o.scrapeAll() {
			if s.Filter != nil {
				stale += s.Filter.Stale
			}
		}
		o.staleMax = max(o.staleMax, stale)
	}
}

var shutdownLine = regexp.MustCompile(`(\d+) diffusion updates, (\d+) messages sent`)

// childUsage is what the children cost, read when they are reaped.
type childUsage struct {
	cpu      time.Duration
	rssMB    float64
	messages float64 // Σ "messages sent" over the children's shutdown banners
}

// stop terminates the deployment: SIGTERM to every child's process group
// (SIGKILL after five seconds), wait for each, then stop the client. It
// is safe to call on a half-launched overlay.
func (o *overlay) stop() (childUsage, error) {
	var u childUsage
	var firstErr error
	for _, p := range o.procs {
		_ = syscall.Kill(-p.Process.Pid, syscall.SIGTERM)
	}
	for id, p := range o.procs {
		killer := time.AfterFunc(5*time.Second, func() { _ = syscall.Kill(-p.Process.Pid, syscall.SIGKILL) })
		err := p.Wait()
		killer.Stop()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("peer %d: %v; its log: %s", id, err, o.readLog(id))
		}
		if ru, ok := p.ProcessState.SysUsage().(*syscall.Rusage); ok {
			u.cpu += rusageCPU(ru)
			u.rssMB += float64(ru.Maxrss) / 1024
		}
		if mt := shutdownLine.FindSubmatch(o.readLog(id)); mt != nil {
			sent, _ := strconv.ParseFloat(string(mt[2]), 64)
			u.messages += sent
		} else if firstErr == nil {
			firstErr = fmt.Errorf("peer %d printed no shutdown banner; its log: %s", id, o.readLog(id))
		}
	}
	o.procs = nil
	if o.client != nil {
		o.client.Stop()
	}
	if o.tr != nil {
		o.tr.Close()
	}
	return u, firstErr
}

// peerScrape is one peer's /statusz (the fields the benchmark reads) and
// /metrics at one instant.
type peerScrape struct {
	Messages   int64                  `json:"messages_sent"`
	Schedulers map[string]serve.Stats `json:"schedulers"`
	Filter     *peernet.FilterStats   `json:"filter"`

	metrics map[string]float64 // series as printed, e.g. `name{a="b"}` → value
}

func (s peerScrape) sched() serve.Stats { return s.Schedulers["local"] }

// scrapeAll reads every peer's admin endpoint concurrently. A peer that
// does not answer contributes zeros.
func (o *overlay) scrapeAll() []peerScrape {
	out := make([]peerScrape, len(o.admin))
	var wg sync.WaitGroup
	for id, addr := range o.admin {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &out[id]
			if body, err := httpGet("http://" + addr + "/statusz"); err == nil {
				_ = json.Unmarshal(body, s) // zeros on a malformed body
			}
			s.metrics = make(map[string]float64)
			body, err := httpGet("http://" + addr + "/metrics")
			if err != nil {
				return
			}
			sc := bufio.NewScanner(bytes.NewReader(body))
			for sc.Scan() {
				series, value, ok := strings.Cut(sc.Text(), " ")
				if v, err := strconv.ParseFloat(value, 64); ok && err == nil && !strings.HasPrefix(series, "#") {
					s.metrics[series] = v
				}
			}
		}()
	}
	wg.Wait()
	return out
}

func httpGet(url string) ([]byte, error) {
	client := http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func runOverlayWalk(c *runCtx) (*measurement, error)  { return runOverlay(c, false) }
func runOverlayChurn(c *runCtx) (*measurement, error) { return runOverlay(c, true) }

// runOverlay is both overlay workloads; churn adds the topology writes.
func runOverlay(c *runCtx, churn bool) (m *measurement, err error) {
	bin, err := filepath.Abs(peerdBin)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("%v: start the benchmark with bench/run.sh, which builds peerd", err)
	}
	m = newMeasurement()
	var (
		o             *overlay
		setups, ready []float64
	)
	defer func() {
		if o != nil && o.procs != nil { // an error path left the children running
			_, _ = o.stop()
		}
	}()
	for rep := 0; rep < c.reps(overlaySetupReps); rep++ {
		if o != nil {
			if _, err := o.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if o, err = newOverlay(c); err != nil {
			return nil, err
		}
		if err := o.launch(bin); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		ready = append(ready, o.readyMS)
	}
	m.e2e["setup_s"], m.samples["setup_s"] = stats.Median(setups), len(setups)
	m.e2e["rediffuse_ms"], m.samples["rediffuse_ms"] = stats.Median(ready), len(ready)

	var hits, answered atomic.Int64
	do := func(i int, due time.Time) bool {
		ok, hit := o.query(m, i)
		c.rec.Add(kit.Span{Name: "driver.request", Req: int64(i + 1)}, due, time.Now())
		if ok {
			answered.Add(1)
		}
		if hit {
			hits.Add(1)
		}
		return ok
	}

	var before []peerScrape
	var clientBefore peernet.FilterStats
	_, clientSent0 := o.client.Stats()
	if c.traced() {
		before, clientBefore = o.scrapeAll(), o.client.FilterStats()
	}
	var enter func(bool)
	if churn {
		enter = func(bool) { o.rewire(m) }
	}
	lr := runLoad(c, overlayLoad, do, enter, nil)
	var after []peerScrape
	var clientAfter peernet.FilterStats
	_, clientSent1 := o.client.Stats()
	if c.traced() {
		after, clientAfter = o.scrapeAll(), o.client.FilterStats()
	}
	loadMetrics(m, overlayLoad, lr)
	m.layer["driver.hit_rate"] = ratio(float64(hits.Load()), float64(answered.Load()))

	usage, err := o.stop()
	if err != nil {
		return nil, err
	}
	// Every message any peer sent in its life, gossip and probes included,
	// over every query the client issued, probes included.
	issued := float64(len(lr.open) + len(lr.closed) + o.probes)
	m.e2e["msgs_per_query"] = (usage.messages + float64(clientSent1)) / issued
	m.samples["msgs_per_query"] = int(issued)

	if c.traced() {
		timed := float64(len(lr.open) + len(lr.closed))
		overlayLayers(m.layer, before, after, clientBefore, clientAfter, timed, lr)
		m.layer["peernet.wire_msgs_per_query"] += ratio(float64(clientSent1-clientSent0), timed)
		m.layer["peernet.gossip_msgs_to_ready"] = o.gossipToReady
		m.layer["peernet.filters_stale_max"] = float64(o.staleMax)
		m.layer["peerd.reloads"] = float64(o.reloads)
		m.layer["peerd.cols_dropped_per_reload"] = ratio(m.layer["peerd.cols_dropped_per_reload"], float64(o.reloads))
		m.layer["proc.cpu_ms_per_query"] = ratio(ms(usage.cpu), issued)
		m.layer["proc.rss_peak_mb"] = usage.rssMB
		send := get(foldSpans(c.rec.Spans(), c.rec.Offset(lr.start), c.rec.Offset(lr.end)), "peernet.client_send")
		m.layer["peernet.client_send_us_p50"] = 1000 * stats.Percentile(send.durs, 50)
		m.layer["peernet.client_bytes_per_msg"] = ratio(float64(send.count["bytes"]), float64(send.calls))
	}
	return m, nil
}

// overlayLayers derives the peernet.*, serve.* and diffuse.* metrics of an
// overlay run from the admin scrapes at the two ends of the timed phases.
func overlayLayers(layer map[string]float64, before, after []peerScrape, cb, ca peernet.FilterStats, queries float64, lr loadResult) {
	var (
		d                        serve.Stats // summed deltas
		wire, waitSum, scoreSum  float64
		dedup, resolved          float64
		hit, fallback, stops     = float64(ca.Hits - cb.Hits), float64(ca.Misses - cb.Misses), float64(ca.Stops - cb.Stops)
		waitP50, waitP90, scoreP []float64
		queueMax                 int
	)
	const tenant = `{tenant="local"}`
	for i := range after {
		a, b := after[i], before[i]
		wire += float64(a.Messages - b.Messages)
		as, bs := a.sched(), b.sched()
		d.CacheHits += as.CacheHits - bs.CacheHits
		d.Completed += as.Completed - bs.Completed
		d.Batches += as.Batches - bs.Batches
		d.QueriesScored += as.QueriesScored - bs.QueriesScored
		d.Rejected += as.Rejected - bs.Rejected
		d.DeadlineMissed += as.DeadlineMissed - bs.DeadlineMissed
		d.SweepsTotal += as.SweepsTotal - bs.SweepsTotal
		d.ColumnSweepsTotal += as.ColumnSweepsTotal - bs.ColumnSweepsTotal
		d.MessagesTotal += as.MessagesTotal - bs.MessagesTotal
		queueMax = max(queueMax, as.QueueMax)
		if as.QueriesScored > bs.QueriesScored {
			waitP50 = append(waitP50, ms(as.WaitP50))
			waitP90 = append(waitP90, ms(as.WaitP90))
			if v := a.metrics[`diffusearch_serve_score_seconds{tenant="local",quantile="0.5"}`]; !math.IsNaN(v) {
				scoreP = append(scoreP, 1000*v)
			}
		}
		waitSum += a.metrics["diffusearch_serve_wait_seconds_sum"+tenant] - b.metrics["diffusearch_serve_wait_seconds_sum"+tenant]
		scoreSum += a.metrics["diffusearch_serve_score_seconds_sum"+tenant] - b.metrics["diffusearch_serve_score_seconds_sum"+tenant]
		for _, p := range serve.Paths {
			series := fmt.Sprintf(`diffusearch_serve_queries_total{path=%q,tenant="local"}`, string(p))
			n := a.metrics[series] - b.metrics[series]
			resolved += n
			if p == serve.PathDedup {
				dedup += n
			}
		}
		if a.Filter != nil && b.Filter != nil {
			hit += float64(a.Filter.Hits - b.Filter.Hits)
			fallback += float64(a.Filter.Misses - b.Filter.Misses)
			stops += float64(a.Filter.Stops - b.Filter.Stops)
		}
	}
	routed := hit + fallback + stops
	cols := float64(d.QueriesScored)
	var latSum float64
	n := 0
	for _, s := range slices.Concat(lr.open, lr.closed) {
		if s.OK {
			latSum += ms(s.Done.Sub(s.Sent))
			n++
		}
	}
	layer["peernet.wire_msgs_per_query"] = ratio(wire, queries)
	layer["peernet.routed_hit_frac"] = ratio(hit, routed)
	layer["peernet.routed_fallback_frac"] = ratio(fallback, routed)
	layer["peernet.early_stop_frac"] = ratio(stops, routed)
	// What is left of a query's time once every peer's scheduler wait and
	// scoring is taken out: sockets, JSON, and the peers' event loops.
	layer["peernet.self_ms_per_query"] = ratio(latSum, float64(n)) - ratio(1000*(waitSum+scoreSum), queries)
	// Cached columns a reload drops are re-scored by the queries that
	// follow, so the columns scored in the timed phases count the drops
	// (the caller divides by the number of reloads).
	layer["peerd.cols_dropped_per_reload"] = cols
	layer["serve.wait_ms_p50"] = stats.Mean(waitP50)
	layer["serve.wait_ms_p90"] = stats.Mean(waitP90)
	layer["serve.score_ms_p50"] = stats.Mean(scoreP)
	layer["serve.batch_mean"] = ratio(cols, float64(d.Batches))
	layer["serve.cache_hit_frac"] = ratio(float64(d.CacheHits), float64(d.CacheHits+d.Completed))
	layer["serve.dedup_frac"] = ratio(dedup, resolved)
	layer["serve.queue_max"] = float64(queueMax)
	layer["serve.rejected"] = float64(d.Rejected)
	layer["serve.shed"] = float64(d.DeadlineMissed)
	layer["diffuse.signal_ms_per_col"] = ratio(1000*scoreSum, cols)
	layer["diffuse.sweeps_per_batch"] = ratio(float64(d.SweepsTotal), float64(d.Batches))
	layer["diffuse.col_sweeps_mean"] = ratio(float64(d.ColumnSweepsTotal), cols)
	layer["diffuse.edge_msgs_per_col"] = ratio(float64(d.MessagesTotal), cols)
	layer["diffuse.ns_per_edge_msg"] = ratio(1e9*scoreSum, float64(d.MessagesTotal))
	layer["diffuse.busy_frac"] = ratio(scoreSum, lr.end.Sub(lr.start).Seconds())
}
