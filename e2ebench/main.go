// Command e2ebench is the repository benchmark: it starts the match
// service with its default configuration on a loopback listener and
// drives one workload through pkg/rapclient over /v1 as a closed loop.
//
//	go run . --workload ruleset-scan --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer, prints the per-layer
// metrics and writes the spans to .bench_build/spans/. The last line of
// standard output is always one JSON object: correct, attempted, failed
// and metrics. See README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type runConfig struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil in untraced runs
	// respBytes sums the response bytes of traced ops.
	respBytes *atomic.Int64
	// serial is held across each traced op, so its calls into each layer
	// meet no contention from the other client and the differences
	// between its spans are the layers' own costs. nil when untraced.
	serial *sync.Mutex
}

// exclusive holds serial in traced runs and returns its release.
func (c runConfig) exclusive() func() {
	if c.serial == nil {
		return func() {}
	}
	c.serial.Lock()
	return c.serial.Unlock
}

func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"ruleset-scan":  runRulesetScan,
	"flow-stream":   runFlowStream,
	"ruleset-churn": runRulesetChurn,
}

func main() {
	name := flag.String("workload", "", "ruleset-scan, flow-stream or ruleset-churn")
	seed := flag.Int64("seed", 1, "seed of the generated traffic")
	seconds := flag.Int("seconds", 30, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload ruleset-scan|flow-stream|ruleset-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, respBytes: new(atomic.Int64)}
	if *trace == 1 {
		cfg.tr, cfg.serial = newTracer(), new(sync.Mutex)
	}
	res, err := runWorkload(context.Background(), run, cfg, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func runWorkload(ctx context.Context, run func(context.Context, runConfig) (*result, error), cfg runConfig, name string) (*result, error) {
	res, err := run(ctx, cfg)
	if err != nil || cfg.tr == nil {
		return res, err
	}
	sw, ok, err := sweep(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && ok
	for k, v := range sw {
		res.Metrics[k] = v
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
	if err := cfg.tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("per-layer metrics of %s (seed %d), from %d spans written to %s:\n", name, cfg.seed, cfg.tr.count(), path)
	for _, k := range names {
		fmt.Printf("  %-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// highestPercentile is the highest latency percentile a run reports:
// p90 untraced, the logged p50 traced.
func (c runConfig) highestPercentile() int {
	if c.tr != nil {
		return 50
	}
	return 90
}

// metrics returns the end-to-end metrics of an untraced run, or the
// per-op layer split of a traced one: op names the op's spans
// (http.<op>, service.<op>) and direct lists the spans of the calls
// below the service that the op's work consists of. Each is averaged
// over the measured ops.
func (c runConfig) metrics(setup time.Duration, log *opLog, w *window, op string, direct ...string) (map[string]metric, error) {
	if c.tr == nil {
		return endToEnd(setup, log, w)
	}
	ops := len(log.latencies)
	if ops == 0 {
		return nil, fmt.Errorf("no op succeeded (%d attempted): %v", log.attempted, log.firstErr)
	}
	// A call made more than once in an op counts its fastest run.
	meanUS := func(names ...string) float64 {
		total := 0.0
		for _, n := range names {
			for _, d := range c.tr.fastestPerOp(n) {
				total += d
			}
		}
		return total / 1e3 / float64(ops)
	}
	httpUS, svcUS, directUS := meanUS("http."+op), meanUS("service."+op), meanUS(direct...)
	p50, err := percentile(log.latencies, 50)
	if err != nil {
		return nil, err
	}
	c.logf("traced %s ops: %d, round-trip p50 %.4f ms; mean per op: round trip %.1f us, in-process service call %.1f us, calls below the service %.1f us; share of the round trip: http+service %.4f, below the service %.4f",
		op, ops, p50, httpUS, svcUS, directUS, (httpUS-directUS)/httpUS, directUS/httpUS)
	return map[string]metric{
		"http.us_per_op":         {httpUS - svcUS, "us"},
		"http.resp_bytes_per_op": {float64(c.respBytes.Load()) / float64(ops), "bytes"},
		"service.us_per_op":      {svcUS - directUS, "us"},
	}, nil
}
