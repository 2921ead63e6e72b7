package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

const (
	sliceDur    = 250 * time.Millisecond // the load phase alternates servers in slices this long
	connections = 2                      // keep-alive connections to each server, one per closed-loop client
	prefill     = 1 << 16                // requests generated before the load phase
)

// record is one response as received, checked against the oracle after
// the load phase so checking costs the client nothing while it measures.
type record struct {
	idx    int    // position in the request stream
	hash   uint64 // bodyHash of the response
	status int    // 0 for a transport error
}

// slice is what one slice of closed-loop load on one server observed.
type slice struct {
	dur   time.Duration
	ok    int       // 200 responses
	latMs []float64 // latency of every response, in ms
	ticks int64     // server CPU ticks over the slice (egeria slices only)
}

func (s slice) rps() float64 { return float64(s.ok) / s.dur.Seconds() }

// loadResult is what one load phase observed. The measured phase runs
// ref[0], egeria[0], ref[1], egeria[1], …, egeria[n-1], ref[n], so every
// egeria slice has a reference slice on either side.
type loadResult struct {
	records   []record
	egeria    []slice
	ref       []slice
	refFailed int // reference requests that did not answer 200
	before    service.StatsSnapshot
	after     service.StatsSnapshot
}

// loader drives a closed loop: each client sends its next request as soon
// as it has read the previous response.
type loader struct {
	sc      *scenario
	srv     *server
	refBase string
	client  *http.Client // to egeria
	refCli  *http.Client // to the reference server

	next    atomic.Int64 // next stream index
	refNext atomic.Int64 // next reference query

	res loadResult

	errOnce sync.Once
}

func (l *loader) logErr(err error) {
	l.errOnce.Do(func() { fmt.Fprintf(os.Stderr, "egeriabench: first request error: %v\n", err) })
}

func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: connections, MaxConnsPerHost: connections, DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr
}

// runLoad warms both servers up for warmup slice pairs, then measures
// pairs egeria slices, each between two reference slices.
func runLoad(sc *scenario, srv *server, refBase string, warmup, pairs int) (*loadResult, error) {
	client, tr := newClient()
	defer tr.CloseIdleConnections()
	refCli, refTr := newClient()
	defer refTr.CloseIdleConnections()
	l := &loader{sc: sc, srv: srv, refBase: refBase, client: client, refCli: refCli}
	var err error
	if l.res.before, err = l.statsz(); err != nil {
		return nil, err
	}
	// generate the requests a run is likely to need before timing starts
	sc.stream.at(prefill)
	// the clients need little CPU; one P and a lazier GC keep the client's
	// threads and collections out of the server's way
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	for k := 0; k < warmup; k++ {
		l.refSlice()
		if _, err := l.egeriaSlice(); err != nil {
			return nil, err
		}
	}
	l.res.ref = append(l.res.ref, l.refSlice())
	for k := 0; k < pairs; k++ {
		s, err := l.egeriaSlice()
		if err != nil {
			return nil, err
		}
		l.res.egeria = append(l.res.egeria, s)
		l.res.ref = append(l.res.ref, l.refSlice())
	}
	if l.res.after, err = l.statsz(); err != nil {
		return nil, err
	}
	return &l.res, nil
}

// egeriaSlice runs the workload against egeria for one slice.
func (l *loader) egeriaSlice() (slice, error) {
	t0, err := cpuTicks(l.srv.cmd.Process.Pid)
	if err != nil {
		return slice{}, fmt.Errorf("read server CPU time: %w", err)
	}
	start := time.Now()
	end := start.Add(sliceDur)
	parts := make([]slice, connections)
	recs := make([][]record, connections)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w], recs[w] = l.read(end)
		}(w)
	}
	wg.Wait()
	s := merge(parts, time.Since(start))
	t1, err := cpuTicks(l.srv.cmd.Process.Pid)
	if err != nil {
		return slice{}, fmt.Errorf("read server CPU time: %w", err)
	}
	s.ticks = t1 - t0
	for _, r := range recs {
		l.res.records = append(l.res.records, r...)
	}
	return s, nil
}

// refSlice runs the reference load for one slice on both connections.
func (l *loader) refSlice() slice {
	start := time.Now()
	end := start.Add(sliceDur)
	parts := make([]slice, connections)
	failed := make([]int, connections)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w], failed[w] = l.readRef(end)
		}(w)
	}
	wg.Wait()
	for _, f := range failed {
		l.res.refFailed += f
	}
	return merge(parts, time.Since(start))
}

func merge(parts []slice, dur time.Duration) slice {
	s := slice{dur: dur}
	for _, p := range parts {
		s.ok += p.ok
		s.latMs = append(s.latMs, p.latMs...)
	}
	return s
}

// read is one closed-loop client of egeria, until end.
func (l *loader) read(end time.Time) (s slice, recs []record) {
	var buf bytes.Buffer
	for time.Now().Before(end) {
		i := int(l.next.Add(1) - 1)
		t0 := time.Now()
		status, hash := l.send(l.sc.stream.at(i), &buf)
		s.latMs = append(s.latMs, float64(time.Since(t0))/1e6)
		recs = append(recs, record{idx: i, hash: hash, status: status})
		if status == http.StatusOK {
			s.ok++
		}
	}
	return s, recs
}

// readRef is one closed-loop client of the reference server, until end.
func (l *loader) readRef(end time.Time) (s slice, failed int) {
	var buf bytes.Buffer
	for time.Now().Before(end) {
		q := refQuery(int(l.refNext.Add(1) - 1))
		t0 := time.Now()
		resp, err := l.refCli.Get(l.refBase + "/ref?q=" + url.QueryEscape(q))
		ok := err == nil
		if ok {
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			ok = err == nil && resp.StatusCode == http.StatusOK
		}
		s.latMs = append(s.latMs, float64(time.Since(t0))/1e6)
		if ok {
			s.ok++
		} else {
			if err != nil {
				l.logErr(err)
			}
			failed++
		}
	}
	return s, failed
}

func (l *loader) send(req request, buf *bytes.Buffer) (status int, hash uint64) {
	var hreq *http.Request
	var err error
	if req.report != nil {
		hreq, err = http.NewRequest(http.MethodPost, l.srv.base+"/v1/"+req.advisor+"/report", bytes.NewReader(req.report))
	} else {
		hreq, err = http.NewRequest(http.MethodGet, l.srv.base+"/v1/"+req.advisor+"/query?q="+url.QueryEscape(req.query), nil)
	}
	if err != nil {
		l.logErr(err)
		return 0, 0
	}
	resp, err := l.client.Do(hreq)
	if err != nil {
		l.logErr(err)
		return 0, 0
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		l.logErr(err)
		return 0, 0
	}
	return resp.StatusCode, bodyHash(buf.Bytes())
}

func (l *loader) statsz() (service.StatsSnapshot, error) {
	var st service.StatsSnapshot
	resp, err := l.client.Get(l.srv.base + "/statsz")
	if err != nil {
		return st, fmt.Errorf("statsz: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statsz: %w", err)
	}
	return st, nil
}
