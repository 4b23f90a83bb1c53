package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/pkg/rapclient"
)

// clients is the closed-loop client count: one goroutine and one
// connection each, matching the 2-CPU host the reference numbers come
// from.
const clients = 2

// server is the service under test on a loopback listener.
type server struct {
	svc  *service.Service
	srv  *http.Server
	done chan error
	base string
	// conns holds the transport of every client handed out, so stop can
	// close their idle connections.
	conns []*http.Transport
}

// client is one closed-loop client: a typed /v1 client on its own
// connection, counting the response body bytes it reads.
type client struct {
	*rapclient.Client
	respBytes atomic.Int64
}

// startServer runs the service with its default configuration (the zero
// service.Config) on a loopback listener.
func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{svc: service.New(service.Config{}), done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	s.srv = &http.Server{Handler: s.svc.Handler()}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// newClient returns a client with a connection of its own. Call it
// before the run's goroutines start.
func (s *server) newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	s.conns = append(s.conns, tr)
	c := &client{}
	hc := &http.Client{Transport: countingTransport{tr, &c.respBytes}}
	// Retries off: a refused or failed request counts as failed instead
	// of hiding inside a retried op's latency.
	c.Client = rapclient.New(s.base, rapclient.WithHTTPClient(hc), rapclient.WithRetries(0))
	return c
}

// stop shuts the listener and the service down and waits for both. A
// failed shutdown is reported on stderr: the run's results stand.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Close()
	for _, tr := range s.conns {
		tr.CloseIdleConnections()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: server shutdown:", err)
	}
}

type countingTransport struct {
	rt http.RoundTripper
	n  *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{resp.Body, t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// opLog collects the measured ops of one run.
type opLog struct {
	mu        sync.Mutex
	latencies []float64 // ms, one per measured op
	bytes     int64     // input bytes matched in the window
	attempted int
	failed    int
	firstErr  error
}

func (l *opLog) record(d time.Duration, nbytes int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	l.latencies = append(l.latencies, float64(d)/float64(time.Millisecond))
	l.bytes += int64(nbytes)
}

func (l *opLog) addBytes(n int) {
	l.mu.Lock()
	l.bytes += int64(n)
	l.mu.Unlock()
}

// window is the measured interval of a run: wall time and process CPU.
type window struct {
	start time.Time
	cpu0  time.Duration
	wall  time.Duration
	cpu   time.Duration
	rss   int64 // peak resident bytes of the process at close
}

// openWindow starts the measured interval. It first collects the
// garbage set-up left, so the window does not pay for it.
func openWindow() (*window, error) {
	runtime.GC()
	c, err := cpuTime()
	if err != nil {
		return nil, err
	}
	return &window{start: time.Now(), cpu0: c}, nil
}

// close ends the measured interval. Peak RSS is read here, before the
// output checks allocate.
func (w *window) close() error {
	w.wall = time.Since(w.start)
	c, err := cpuTime()
	if err != nil {
		return err
	}
	w.cpu = c - w.cpu0
	w.rss, err = peakRSS()
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics of a run from its op log.
func endToEnd(setup time.Duration, log *opLog, w *window) (map[string]metric, error) {
	ops := len(log.latencies)
	if ops == 0 {
		return nil, fmt.Errorf("no op succeeded (%d attempted): %v", log.attempted, log.firstErr)
	}
	p50, err := percentile(log.latencies, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(log.latencies, 90)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":       {setup.Seconds(), "s"},
		"input_mb_s":    {float64(log.bytes) / 1e6 / w.wall.Seconds(), "MB/s"},
		"ops_s":         {float64(ops) / w.wall.Seconds(), "1/s"},
		"op_p50_ms":     {p50, "ms"},
		"op_p90_ms":     {p90, "ms"},
		"cpu_ms_per_op": {float64(w.cpu) / float64(time.Millisecond) / float64(ops), "ms"},
		"rss_mb":        {float64(w.rss) / 1e6, "MB"},
	}, nil
}

// tracer keeps a run's spans in memory; they are written once, at exit.
// A nil *tracer records nothing, so untraced runs share the code path.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

type span struct {
	Name   string
	Start  time.Duration // since the tracer's base
	End    time.Duration
	Parent int // index of the parent span, -1 for a root
	Op     int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return now - t.spans[i].Start
}

// fastestPerOp returns, for each measured op (id >= 0), the shortest
// closed span named name.
func (t *tracer) fastestPerOp(name string) map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]float64{}
	for _, s := range t.spans {
		if s.Name != name || s.End == 0 || s.Op < 0 {
			continue
		}
		if d, ok := out[s.Op]; !ok || float64(s.End-s.Start) < d {
			out[s.Op] = float64(s.End - s.Start)
		}
	}
	return out
}

// durations returns the durations of every closed span named name whose
// parent is span parent.
func (t *tracer) durations(name string, parent int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Parent == parent && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write dumps the spans as JSON lines: name, start and end in ns since
// the run's trace base, parent index and op id.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i, s := range t.spans {
		if err = enc.Encode([]any{i, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds(), s.Parent, s.Op}); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
