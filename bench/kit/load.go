package kit

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one request of a load phase. Due is when the schedule wanted
// it sent, Sent when its goroutine actually started, Done when the result
// arrived. In a closed loop Due equals Sent.
type Sample struct {
	Index int // position in the phase's request stream
	Due   time.Time
	Sent  time.Time
	Done  time.Time
	OK    bool
}

// LatencyMS is the user-visible latency: due time to result, so a stall of
// the generator or of the system is charged to every request it delayed.
func (s Sample) LatencyMS() float64 { return float64(s.Done.Sub(s.Due)) / float64(time.Millisecond) }

// LatenessMS is how late the generator released the request.
func (s Sample) LatenessMS() float64 { return float64(s.Sent.Sub(s.Due)) / float64(time.Millisecond) }

// OpenLoop releases request i at start+due[i] regardless of earlier
// requests: one pacing goroutine (the caller's) plus one goroutine per
// in-flight request. do reports whether the request succeeded. It returns
// once every released request has finished; cancelling ctx stops releasing.
func OpenLoop(ctx context.Context, due []time.Duration, do func(i int) bool) []Sample {
	out := make([]Sample, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	released := 0
	for i, off := range due {
		at := start.Add(off)
		if d := time.Until(at); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		if ctx.Err() != nil {
			break
		}
		released++
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := Sample{Index: i, Due: at, Sent: time.Now()}
			s.OK = do(i)
			s.Done = time.Now()
			out[i] = s
		}()
	}
	wg.Wait()
	return out[:released]
}

// ClosedLoop keeps inflight requests outstanding for dur: each worker
// sends its next request when the previous one completes. Request indices
// are handed out in issue order across workers.
func ClosedLoop(ctx context.Context, inflight int, dur time.Duration, do func(i int) bool) []Sample {
	var (
		mu   sync.Mutex
		out  []Sample
		next atomic.Int64
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []Sample
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				ok := do(i)
				mine = append(mine, Sample{Index: i, Due: t0, Sent: t0, Done: time.Now(), OK: ok})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}
