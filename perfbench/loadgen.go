package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonSchedule returns the due offsets of an open-loop Poisson
// arrival process at rate requests per second over a window: the
// independent-users model, in which the next request is due whether or
// not earlier ones have completed.
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		out = append(out, due)
	}
}

// evenSchedule returns n due offsets spread evenly over the window,
// the first and last one gap from its ends.
func evenSchedule(n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for k := range out {
		out[k] = window * time.Duration(k+1) / time.Duration(n+1)
	}
	return out
}

// timing is one request's life on the generator's clock, measured from
// the step start: when it was due, when a connection took it, when the
// request was written, and when its response was complete.
type timing struct {
	due, taken, sent, done time.Duration
}

// latency counts from when the request was due, so a stall also charges
// the wait it imposes on every request queued behind it.
func (t timing) latency() time.Duration { return t.done - t.due }

// lag is how late the generator itself sent the request: the time past
// the later of its due time and the moment a free connection took it.
// Waiting for a busy connection is the server's queueing, not lag.
func (t timing) lag() time.Duration { return t.sent - max(t.due, t.taken) }

// dispatch runs one open-loop schedule over conns connections: each
// connection, when free, takes the earliest request no connection has
// taken, waits until it is due (or sends at once when it is already
// late), and do(conn, i) sends it and returns with the response
// complete. Requests are served first come first served, so a slow
// response delays those queued behind it. dispatch returns every
// request's timing once all have completed.
func dispatch(start time.Time, due []time.Duration, conns int, do func(conn, i int)) []timing {
	out := make([]timing, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				t := timing{due: due[i], taken: time.Since(start)}
				sleepUntil(start.Add(due[i]))
				t.sent = time.Since(start)
				do(c, i)
				t.done = time.Since(start)
				out[i] = t
			}
		}(c)
	}
	wg.Wait()
	return out
}

// coarseSleepSlack is how much earlier than the deadline a runtime
// sleep must end: Go timers on an idle process overshoot by up to about
// a millisecond, so the final stretch uses nanosleep, which blocks only
// the calling thread and wakes within the kernel's timer slack.
const coarseSleepSlack = 2 * time.Millisecond

// sleepUntil blocks until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > coarseSleepSlack {
		time.Sleep(d - coarseSleepSlack)
	}
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}
