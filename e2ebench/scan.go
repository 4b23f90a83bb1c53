package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/refmatch"
	"repro/pkg/rapclient"
)

const (
	scanBodyBytes = 64 << 10
	// scanBodiesPerRS distinct bodies per ruleset: a run's rotations each
	// scan new bytes, because scan cost varies with content (one 64 KiB
	// ClamAV body scans up to 1.4x slower than another) and a run must
	// average over many bodies to repeat within a few percent.
	scanBodiesPerRS = 32
	probeBytes      = 256 // window the oracle checks in both directions
	// scanTraceReps is how many times a traced scan op runs each of its
	// calls, interleaved; each layer counts its fastest. A 64 KiB scan
	// varies by a tenth from one call to the next on a shared host, far
	// more than the HTTP and service costs it carries.
	scanTraceReps = 3
)

// rotation hands out ops of the fixed ruleset rotation and stops at a
// rotation boundary once the deadline has passed, so every run attempts
// whole rotations: equal bytes per ruleset.
type rotation struct {
	mu       sync.Mutex
	next     int
	period   int
	deadline time.Time
	min      int // rotations attempted at least
	stopped  bool
}

func (r *rotation) take() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return 0, false
	}
	if r.next%r.period == 0 && r.next/r.period >= r.min && time.Now().After(r.deadline) {
		r.stopped = true
		return 0, false
	}
	k := r.next
	r.next++
	return k, true
}

// scanOp is one measured scan's outcome, kept for the checks.
type scanOp struct {
	rs, body int
	matches  []rapclient.Match
}

func runRulesetScan(ctx context.Context, cfg runConfig) (*result, error) {
	sets, err := loadRulesets()
	if err != nil {
		return nil, err
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	cls := []*client{srv.newClient(), srv.newClient()}

	ids := make([]string, len(sets))
	bodies := make([][][]byte, len(sets))
	plants := make([][][]plant, len(sets))
	for r, rs := range sets {
		p, err := cls[0].Compile(ctx, rs.patterns, nil)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", rs.name, err)
		}
		ids[r] = p.ID
		for b := 0; b < scanBodiesPerRS; b++ {
			body, pl := plantBody(rngFor(cfg.seed, "scan", r*scanBodiesPerRS+b), scanBodyBytes, rs.alphabet,
				rs.oracle, rs.patterns, allIndices(len(rs.patterns)), plantBudget(scanBodyBytes))
			bodies[r] = append(bodies[r], body)
			plants[r] = append(plants[r], pl)
		}
		// Warm-up: one short scan per ruleset fills the program's session
		// pool and the connection.
		if _, err := cls[0].Scan(ctx, p.ID, bodies[r][0][:4<<10]); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", rs.name, err)
		}
		// Collecting each ruleset's set-up garbage keeps the peak RSS of
		// set-up, which rss_mb includes, from depending on when the
		// collector happens to run.
		runtime.GC()
	}
	setup, err := sinceProcessStart()
	if err != nil {
		return nil, err
	}

	log := &opLog{}
	var opsMu sync.Mutex
	var ops []scanOp
	// Every run attempts enough rotations for its percentiles to be
	// defined, on a host slower than the one the run length was chosen on.
	minOps := minSamples(cfg.highestPercentile())
	rot := &rotation{period: len(sets), deadline: time.Now().Add(cfg.seconds), min: (minOps + len(sets) - 1) / len(sets)}
	w, err := openWindow()
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			direct := make([]*refmatch.Session, len(sets))
			for {
				k, ok := rot.take()
				if !ok {
					return
				}
				r, b := k%len(sets), (k/len(sets))%scanBodiesPerRS
				body := bodies[r][b]
				release := cfg.exclusive()
				root := cfg.tr.begin("op.scan", -1, int64(k))
				sp := cfg.tr.begin("http.scan", root, int64(k))
				before := cl.respBytes.Load()
				t0 := time.Now()
				res, err := cl.Scan(ctx, ids[r], body)
				d := time.Since(t0)
				cfg.tr.end(sp)
				if err == nil && cfg.tr != nil {
					cfg.respBytes.Add(cl.respBytes.Load() - before)
					err = traceScanLayers(ctx, cfg.tr, srv, cl, ids[r], body, root, int64(k), direct, r)
				}
				cfg.tr.end(root)
				release()
				log.record(d, len(body), err)
				if err != nil {
					continue
				}
				opsMu.Lock()
				ops = append(ops, scanOp{rs: r, body: b, matches: res.Matches})
				opsMu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	if err := w.close(); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: log.attempted, Failed: log.failed}
	if n, err := checkScans(ops, sets, bodies, plants); err != nil {
		cfg.logf("check: %v", err)
		res.Correct = false
	} else {
		cfg.logf("check: %d scans; %d matches of the distinct bodies confirmed by regexp, planted exemplars reported, repeats identical", len(ops), n)
	}
	if err := checkProbes(ctx, cls[0], ids, sets, cfg.seed); err != nil {
		cfg.logf("probe: %v", err)
		res.Correct = false
	}
	res.Metrics, err = cfg.metrics(setup, log, w, "scan", "refmatch.scan")
	return res, err
}

// traceScanLayers runs a traced op's scan below the HTTP layer: through
// Service.Scan in process and on a refmatch.Session of the program's own
// Matcher, so each layer's share is a difference of spans. Scans hold no
// state, so all three calls run scanTraceReps times, interleaved, the
// caller having made the first round trip.
func traceScanLayers(ctx context.Context, tr *tracer, srv *server, cl *client, id string, body []byte, root int, op int64, direct []*refmatch.Session, r int) error {
	if direct[r] == nil {
		prog, ok := srv.svc.Program(id)
		if !ok {
			return fmt.Errorf("program %s not cached", id)
		}
		direct[r] = prog.Matcher.NewSession()
	}
	for rep := 0; rep < scanTraceReps; rep++ {
		if rep > 0 {
			sp := tr.begin("http.scan", root, op)
			_, err := cl.Scan(ctx, id, body)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		sp := tr.begin("service.scan", root, op)
		_, err := srv.svc.Scan(ctx, id, body)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("in-process scan: %w", err)
		}
		sp = tr.begin("refmatch.scan", root, op)
		direct[r].ScanInto(body, nil)
		tr.end(sp)
	}
	return nil
}

type matchKey struct{ Pattern, End int }

func matchSet(ms []rapclient.Match) []matchKey {
	out := make([]matchKey, len(ms))
	for i, m := range ms {
		out[i] = matchKey{m.Pattern, m.End}
	}
	sortKeys(out)
	return out
}

func equalSets(a, b []matchKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkScans confirms every reported match of each distinct body with the
// oracle, requires every planted exemplar to be reported at its end, and
// requires every repeat scan of a body to return the same set.
func checkScans(ops []scanOp, sets []*ruleset, bodies [][][]byte, plants [][][]plant) (int, error) {
	type key struct{ rs, body int }
	ref := map[key][]matchKey{}
	var first []scanOp
	for _, op := range ops {
		k := key{op.rs, op.body}
		got := matchSet(op.matches)
		if want, ok := ref[k]; ok {
			if !equalSets(got, want) {
				return 0, fmt.Errorf("%s body %d: a repeat scan returned %d matches, the first %d", sets[op.rs].name, op.body, len(got), len(want))
			}
			continue
		}
		ref[k] = got
		first = append(first, op)
	}
	// The oracle runs on the first scan of each body, split over clients.
	errs := make([]error, clients)
	counts := make([]int, clients)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(first); i += clients {
				op := first[i]
				rs, body, got := sets[op.rs], bodies[op.rs][op.body], ref[key{op.rs, op.body}]
				if err := confirm(rs.name, body, got, func(p int) (*oracle, int) { return rs.oracle, p }); err != nil {
					errs[g] = err
					return
				}
				if err := reported(rs.name, got, plants[op.rs][op.body]); err != nil {
					errs[g] = err
					return
				}
				counts[g] += len(got)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return counts[0] + counts[1], nil
}

// confirm checks each match with the oracle; lookup maps a program
// pattern index to the oracle holding it and its index there.
func confirm(name string, body []byte, got []matchKey, lookup func(int) (*oracle, int)) error {
	for _, m := range got {
		if m.End < 0 || m.End >= len(body) {
			return fmt.Errorf("%s: match (pattern %d, end %d) outside the %d-byte body", name, m.Pattern, m.End, len(body))
		}
		o, i := lookup(m.Pattern)
		if o == nil || i < 0 || i >= len(o.res) || !o.matchesAt(i, body, m.End) {
			return fmt.Errorf("%s: match (pattern %d, end %d) not confirmed by regexp", name, m.Pattern, m.End)
		}
	}
	return nil
}

func reported(name string, got []matchKey, pl []plant) error {
	have := make(map[matchKey]bool, len(got))
	for _, m := range got {
		have[m] = true
	}
	for _, p := range pl {
		if !have[matchKey{p.Pattern, p.End}] {
			return fmt.Errorf("%s: planted exemplar of pattern %d at [%d,%d] not reported", name, p.Pattern, p.Off, p.End)
		}
	}
	return nil
}

// checkProbes scans a short seeded window per ruleset and requires the
// service's match set to equal the oracle's, computed over every pattern
// and every end offset.
func checkProbes(ctx context.Context, cl *client, ids []string, sets []*ruleset, seed int64) error {
	for r, rs := range sets {
		body, _ := plantBody(rngFor(seed, "probe", r), probeBytes, rs.alphabet, rs.oracle, rs.patterns,
			allIndices(len(rs.patterns)), probeBytes/4)
		res, err := cl.Scan(ctx, ids[r], body)
		if err != nil {
			return fmt.Errorf("%s: %w", rs.name, err)
		}
		var want []matchKey
		for p := range rs.patterns {
			for e := range body {
				if rs.oracle.matchesAt(p, body, e) {
					want = append(want, matchKey{p, e})
				}
			}
		}
		sortKeys(want)
		if got := matchSet(res.Matches); !equalSets(got, want) {
			return fmt.Errorf("%s: probe window: service reported %d matches, oracle %d", rs.name, len(got), len(want))
		}
	}
	return nil
}
