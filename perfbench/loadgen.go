package main

import (
	"sync"
	"time"
)

// sample is one generated request. Open-loop requests are timed from due,
// the time the schedule said to send them, so a stall also delays (and is
// charged to) every request queued behind it; closed-loop requests are due
// when they are sent.
type sample struct {
	due, sent, done time.Time
	err             error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// openLoop sends n requests at rate per second over at most conns
// concurrent senders (so at most conns connections). A dispatcher releases
// request i at due time start+i/rate into an unbounded queue and never waits
// for a sender, so its own lateness (returned per request) measures the
// generator, not the system. send(worker, i) performs request i.
func openLoop(rate float64, n, conns int, send func(worker, i int) error) ([]sample, []time.Duration) {
	samples := make([]sample, n)
	late := make([]time.Duration, n)
	queue := make(chan int, n) // sized to every send: the dispatcher never blocks
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				samples[i].sent = time.Now()
				samples[i].err = send(w, i)
				samples[i].done = time.Now()
			}
		}(w)
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		samples[i].due = due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples, late
}

// closedLoop runs conns senders back to back until d has passed; request
// indices are handed out in order across senders. prep(i) builds request i
// outside the timed region and returns the call that sends it.
func closedLoop(d time.Duration, conns int, prep func(i int) func() error) []sample {
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				i := len(samples)
				samples = append(samples, sample{})
				mu.Unlock()
				send := prep(i)
				s := sample{due: time.Now()}
				s.sent = s.due
				s.err = send()
				s.done = time.Now()
				mu.Lock()
				samples[i] = s
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples
}
