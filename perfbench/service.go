package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcbnet/internal/service"
)

// The service workloads drive an in-process mcbd: service.NewServer with its
// defaults behind a loopback listener, POST /v1/topk requests of topKN
// values asking for the topK largest.
const (
	topKN = 64
	topK  = 8
)

// Headers that tie a traced handler span to the client span that caused it.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Parent"
)

// serviceRig is a running in-process mcbd and an HTTP client limited to
// nproc connections.
type serviceRig struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
	// rec, when set, makes the handler wrapper and the client record spans.
	rec atomic.Pointer[Recorder]
}

// startService starts the server. With wrap set, ServeHTTP is wrapped so a
// recorder installed later can time it.
func startService(wrap bool) (*serviceRig, error) {
	srv, err := service.NewServer(service.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &serviceRig{
		srv:    srv,
		url:    "http://" + ln.Addr().String() + "/v1/topk",
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc(),
			MaxIdleConnsPerHost: nproc(),
			DisableCompression:  true,
		}},
	}
	var h http.Handler = srv
	if wrap {
		h = http.HandlerFunc(r.tracedServeHTTP)
	}
	r.hs = &http.Server{Handler: h}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// tracedServeHTTP records a span around Server.ServeHTTP for a request
// that carries a client span.
func (r *serviceRig) tracedServeHTTP(w http.ResponseWriter, req *http.Request) {
	rec := r.rec.Load()
	if rec == nil || req.Header.Get(hdrReq) == "" {
		r.srv.ServeHTTP(w, req)
		return
	}
	id, _ := strconv.ParseInt(req.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(req.Header.Get(hdrParent), 10, 64)
	sp := rec.start("http.handler", parent, id)
	r.srv.ServeHTTP(w, req)
	sp.end()
}

// close shuts the HTTP server down, waits for it, and drains the pool.
func (r *serviceRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	<-r.served
	r.client.CloseIdleConnections()
	r.srv.Close()
	return err
}

// topkValues is the value set of request i.
func topkValues(seed uint64, i int) []int64 {
	r := rng(seed, i)
	v := make([]int64, topKN)
	for j := range v {
		v[j] = int64(r.Intn(1 << 30))
	}
	return v
}

func topkBody(values []int64) []byte {
	b, _ := json.Marshal(service.Request{Values: values, K: topK}) // plain ints always encode
	return b
}

// checkTopK is the oracle: the topK largest values, sorted descending.
func checkTopK(values []int64, got []int64) error {
	want := slices.Clone(values)
	slices.Sort(want)
	slices.Reverse(want)
	want = want[:topK]
	if !slices.Equal(want, got) {
		return &errWrong{fmt.Sprintf("top-%d = %v, want %v", topK, got, want)}
	}
	return nil
}

// reqRecord is one answered request.
type reqRecord struct {
	values []int64 // the request's values, for the oracle
	rt     time.Duration
	resp   service.Response
	span   int64
}

// post sends one top-k request and decodes the answer. When traced and the
// rig has a recorder, the round trip is a client span and its ID travels to
// the handler.
func (r *serviceRig) post(body []byte, req int64, traced bool) (reqRecord, error) {
	var rec *Recorder
	if traced {
		rec = r.rec.Load()
	}
	hr, err := http.NewRequest(http.MethodPost, r.url, bytes.NewReader(body))
	if err != nil {
		return reqRecord{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	sp := rec.start("http.client", 0, req)
	if sp != nil {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrParent, strconv.FormatInt(sp.id(), 10))
	}
	t := time.Now()
	resp, err := r.client.Do(hr)
	if err != nil {
		return reqRecord{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t)
	sp.end()
	if err != nil {
		return reqRecord{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reqRecord{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	out := reqRecord{rt: rt, span: sp.id()}
	if err := json.Unmarshal(b, &out.resp); err != nil {
		return reqRecord{}, fmt.Errorf("decode response: %w", err)
	}
	return out, nil
}

// phaseRun is the outcome of one load phase against the rig.
type phaseRun struct {
	samples []sample
	late    []time.Duration
	recs    map[int]reqRecord
}

// load runs one phase of the workload: an open loop at rate requests per
// second for d, or a closed loop over nproc connections when rate is 0.
// Request i carries topkValues(seed, first+i); even requests are traced
// when the rig has a recorder. Answers are checked by the oracle after the
// phase ends; a wrong one becomes the request's error.
func (r *serviceRig) load(seed uint64, first int, rate float64, d time.Duration) *phaseRun {
	out := &phaseRun{recs: map[int]reqRecord{}}
	var mu sync.Mutex
	send := func(body []byte, values []int64, i int) error {
		rec, err := r.post(body, int64(first+i), i%2 == 0)
		if err != nil {
			return err
		}
		rec.values = values
		mu.Lock()
		out.recs[i] = rec
		mu.Unlock()
		return nil
	}
	if rate == 0 {
		out.samples = closedLoop(d, nproc(), func(i int) func() error {
			values := topkValues(seed, first+i)
			body := topkBody(values)
			return func() error { return send(body, values, i) }
		})
	} else {
		n := int(rate * d.Seconds())
		values := make([][]int64, n)
		bodies := make([][]byte, n)
		for i := range bodies {
			values[i] = topkValues(seed, first+i)
			bodies[i] = topkBody(values[i])
		}
		out.samples, out.late = openLoop(rate, n, nproc(), func(_, i int) error {
			return send(bodies[i], values[i], i)
		})
	}
	for i, rec := range out.recs {
		if err := checkTopK(rec.values, rec.resp.Values); err != nil {
			out.samples[i].err = err
			delete(out.recs, i)
		}
	}
	return out
}
