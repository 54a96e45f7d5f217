package kit

import (
	"context"
	"reflect"
	"testing"
	"time"

	"diffusearch/internal/randx"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if tail := TailOf(xs); tail.N != 1000 || tail.Pct != 99 || tail.Value < 989 || tail.Value > 990 {
		t.Errorf("TailOf = %+v", tail)
	}
}

func TestQuietSliceReportsTheLeastDisturbedSlice(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 2
	}
	for i := 100; i < 200; i++ { // the one quiet fifth
		xs[i] = 1
	}
	if got := QuietSlice(xs, 5, 90); got != 1 {
		t.Errorf("QuietSlice = %v, want the quiet slice's 1", got)
	}
	// A p90 needs 100 samples a slice, so 150 samples are one slice; a
	// median needs 20, so the same samples split.
	if got := QuietSlice(xs[50:200], 5, 90); got != 2 {
		t.Errorf("a sample too small to split: QuietSlice = %v, want the plain p90 2", got)
	}
	if got := QuietSlice(xs[50:200], 5, 50); got != 1 {
		t.Errorf("QuietSlice = %v, want 1", got)
	}
}

func TestPoissonScheduleIsSeededAndOrdered(t *testing.T) {
	a := PoissonSchedule(randx.Derive(7, "arrivals"), 200, time.Second)
	b := PoissonSchedule(randx.Derive(7, "arrivals"), 200, time.Second)
	c := PoissonSchedule(randx.Derive(8, "arrivals"), 200, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < 120 || len(a) > 280 {
		t.Errorf("200/s over 1s released %d requests", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("offset %d = %v out of order or past the phase", i, a[i])
		}
	}
}

// A request that runs long must not delay the next one's due time, and the
// latency of a request released late is charged from when it was due.
func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	got := OpenLoop(context.Background(), due, func(i int) bool {
		if i == 0 {
			time.Sleep(60 * time.Millisecond)
		}
		return i != 2
	})
	if len(got) != 3 {
		t.Fatalf("released %d of 3", len(got))
	}
	if got[1].Sent.After(got[0].Done) {
		t.Error("request 1 waited for request 0: the loop is not open")
	}
	for i, s := range got {
		if s.Index != i || s.LatenessMS() < 0 || s.LatencyMS() < s.LatenessMS() {
			t.Errorf("sample %d: index %d lateness %.3f latency %.3f", i, s.Index, s.LatenessMS(), s.LatencyMS())
		}
		if want := s.Done.Sub(s.Due); time.Duration(s.LatencyMS()*float64(time.Millisecond)) > want+time.Microsecond {
			t.Errorf("sample %d latency not measured from due time", i)
		}
	}
	if got[0].LatencyMS() < 60 || !got[0].OK || got[2].OK {
		t.Errorf("samples = %+v", got)
	}
}

func TestClosedLoopKeepsInflightBounded(t *testing.T) {
	cur, peak := 0, 0
	ch := make(chan int, 1)
	ch <- 0
	got := ClosedLoop(context.Background(), 3, 50*time.Millisecond, func(int) bool {
		n := <-ch + 1
		cur = n
		peak = max(peak, cur)
		ch <- n
		time.Sleep(time.Millisecond)
		ch <- <-ch - 1
		return true
	})
	if peak > 3 || len(got) < 3 {
		t.Errorf("peak in flight %d, completions %d", peak, len(got))
	}
	seen := make(map[int]bool)
	for _, s := range got {
		if seen[s.Index] {
			t.Fatalf("index %d issued twice", s.Index)
		}
		seen[s.Index] = true
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	r := NewRecorder()
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := r.NextID()
	a := r.Add(Span{Parent: root, Name: "child"}, at(10), at(40))
	r.Add(Span{Parent: root, Name: "child"}, at(30), at(60))  // overlaps a by 10ms
	r.Add(Span{Parent: root, Name: "child"}, at(90), at(120)) // clipped to the parent's end
	r.Add(Span{Parent: a, Name: "grandchild"}, at(10), at(15))
	r.Add(Span{ID: root, Name: "root"}, at(0), at(100))
	self := SelfByName(r.Spans())
	ms := func(d time.Duration) int { return int(d / time.Millisecond) }
	if ms(self["root"]) != 40 { // 100 − [10,60] − [90,100]
		t.Errorf("root self = %v, want 40ms", self["root"])
	}
	if ms(self["child"]) != 30-5+30+30 {
		t.Errorf("child self = %v, want 85ms", self["child"])
	}
	if ms(self["grandchild"]) != 5 {
		t.Errorf("grandchild self = %v", self["grandchild"])
	}
	var nilRec *Recorder
	if nilRec.Add(Span{Name: "x"}, at(0), at(1)) != 0 || nilRec.NextID() != 0 || nilRec.Spans() != nil {
		t.Error("nil recorder must record nothing")
	}
}
