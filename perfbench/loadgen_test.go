package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// A handler that stalls every request for a while must show up in the
// latency of the requests queued behind the stall, not only in the ones in
// flight: open-loop requests are timed from when they were due.
func TestOpenLoopChargesStalls(t *testing.T) {
	const (
		rate    = 100
		n       = 60
		conns   = 2
		stallAt = 10
		stall   = 300 * time.Millisecond
	)
	var (
		gate   sync.Mutex // held through the stall: every request waits on it
		mu     sync.Mutex
		served int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served++
		stalling := served == stallAt
		mu.Unlock()
		gate.Lock()
		if stalling {
			time.Sleep(stall)
		}
		gate.Unlock()
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns}}
	defer client.CloseIdleConnections()

	samples, late := openLoop(rate, n, conns, func(_, _ int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	if len(samples) != n || len(late) != n {
		t.Fatalf("got %d samples, %d lateness readings, want %d", len(samples), len(late), n)
	}
	var fromDue, fromSend int
	for _, s := range samples {
		if s.err != nil {
			t.Fatalf("request failed: %v", s.err)
		}
		if s.latency() >= 100*time.Millisecond {
			fromDue++
		}
		if s.done.Sub(s.sent) >= 100*time.Millisecond {
			fromSend++
		}
	}
	// About 30 requests fall due during the stall; those due in its first
	// 200 ms wait at least 100 ms. Timed from their send, only the requests
	// in flight when the stall began would look slow.
	if fromDue < 10 {
		t.Errorf("%d requests took >= 100ms from their due time, want >= 10", fromDue)
	}
	if fromSend > conns+1 {
		t.Errorf("%d requests took >= 100ms from their send time, want <= %d", fromSend, conns+1)
	}
}

func TestClosedLoopKeepsConnsBusy(t *testing.T) {
	var (
		mu           sync.Mutex
		active, peak int
	)
	samples := closedLoop(100*time.Millisecond, 2, func(int) func() error {
		return func() error {
			mu.Lock()
			active++
			peak = max(peak, active)
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			active--
			mu.Unlock()
			return nil
		}
	})
	if len(samples) < 10 {
		t.Fatalf("closed loop completed %d requests in 100ms, want >= 10", len(samples))
	}
	if peak != 2 {
		t.Errorf("peak concurrency %d, want 2", peak)
	}
}
