package main

import (
	"context"
	"fmt"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitstream"
	"repro/internal/service"
	"repro/pkg/rapclient"
)

const (
	churnVariants  = 64                  // distinct swapped rulesets per seed, PUT in turn
	churnSwapShare = 0.05                // share of Snort rules swapped per update
	churnBodyBytes = 4 << 10             // scan body size
	churnPlantBud  = churnBodyBytes / 10 // planted bytes per churn body
	churnDonor     = "Suricata"          // donor ruleset
	churnBase      = "Snort"
)

// variant is the Snort ruleset with some rules swapped for donors. Each
// pattern index maps to the oracle of the ruleset it came from.
type variant struct {
	patterns []string
	oracle   *oracle // pattern-for-pattern view of the two rulesets' oracles
	added    []int   // swapped-in positions
	body     []byte  // churn scan body with exemplars of added rules
	plants   []plant
}

// makeVariants builds the seeded churn variants: each swaps
// churnSwapShare of the base rules, at distinct positions, for distinct
// donor rules, and comes with a scan body holding planted exemplars of
// the rules it added.
func makeVariants(seed int64, base, donor *ruleset) ([]*variant, error) {
	nswap := int(churnSwapShare*float64(len(base.patterns)) + 0.5)
	out := make([]*variant, churnVariants)
	for k := range out {
		r := rngFor(seed, "churn", k)
		v := &variant{patterns: append([]string(nil), base.patterns...)}
		o := &oracle{
			res:    append([]*regexp.Regexp(nil), base.oracle.res...),
			maxLen: append([]int(nil), base.oracle.maxLen...),
			whole:  append([]*regexp.Regexp(nil), base.oracle.whole...),
		}
		pos, don := r.Perm(len(base.patterns))[:nswap], r.Perm(len(donor.patterns))[:nswap]
		for i, p := range pos {
			d := don[i]
			v.patterns[p] = donor.patterns[d]
			o.res[p], o.maxLen[p], o.whole[p] = donor.oracle.res[d], donor.oracle.maxLen[d], donor.oracle.whole[d]
			v.added = append(v.added, p)
		}
		v.oracle = o
		v.body, v.plants = plantBody(r, churnBodyBytes, base.alphabet, o, v.patterns, v.added, churnPlantBud)
		if len(v.plants) == 0 {
			return nil, fmt.Errorf("churn variant %d: no exemplar of an added rule could be planted", k)
		}
		out[k] = v
	}
	return out, nil
}

// churnScan is one scan beside the updates. It ran against the ruleset
// of some update numbered from issued (the last update finished when it
// was sent) to started (the last update begun when it returned).
type churnScan struct {
	issued, started int64
	matches         []rapclient.Match
}

func runRulesetChurn(ctx context.Context, cfg runConfig) (*result, error) {
	base, err := loadRuleset(churnBase)
	if err != nil {
		return nil, err
	}
	donor, err := loadRuleset(churnDonor)
	if err != nil {
		return nil, err
	}
	vars, err := makeVariants(cfg.seed, base, donor)
	if err != nil {
		return nil, err
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	updater, scanner := srv.newClient(), srv.newClient()
	prog, err := updater.Compile(ctx, base.patterns, nil)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", base.name, err)
	}
	id := prog.ID
	// Warm-up: update 0 installs variant 0 and builds the base image the
	// first diff needs; one scan fills the session pool.
	up, err := updater.Update(ctx, id, vars[0].patterns, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up update: %w", err)
	}
	gens := []int64{up.Generation}
	if _, err := scanner.Scan(ctx, id, vars[0].body); err != nil {
		return nil, fmt.Errorf("warm-up scan: %w", err)
	}
	var ch *chain
	if cfg.tr != nil {
		if ch, err = newChain(ctx, base.patterns); err != nil {
			return nil, err
		}
	}
	setup, err := sinceProcessStart()
	if err != nil {
		return nil, err
	}

	log := &opLog{}
	var started, finished atomic.Int64 // update numbers; update n installs vars[n%churnVariants]
	var done atomic.Bool
	var scans []churnScan
	var scanErr, upErr error
	deadline := time.Now().Add(cfg.seconds)
	w, err := openWindow()
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // updater: the measured ops
		defer wg.Done()
		defer done.Store(true)
		minOps := minSamples(cfg.highestPercentile())
		for n, ops := int64(1), 0; ops < minOps || time.Now().Before(deadline); n, ops = n+1, ops+1 {
			op := n
			release := cfg.exclusive()
			root := cfg.tr.begin("op.update", -1, op)
			sp := cfg.tr.begin("http.update", root, op)
			before := updater.respBytes.Load()
			started.Store(n)
			t0 := time.Now()
			res, err := updater.Update(ctx, id, vars[n%churnVariants].patterns, nil)
			d := time.Since(t0)
			cfg.tr.end(sp)
			if err == nil {
				finished.Store(n)
				gens = append(gens, res.Generation)
			}
			if err == nil && cfg.tr != nil {
				cfg.respBytes.Add(updater.respBytes.Load() - before)
				// The in-process update installs the next variant, so it
				// counts as an update of its own in the numbering.
				n++
				next := vars[n%churnVariants].patterns
				sp = cfg.tr.begin("service.update", root, op)
				started.Store(n)
				var r2 *service.UpdateResult
				r2, err = srv.svc.Update(ctx, id, next, service.CompileOptions{})
				cfg.tr.end(sp)
				if err == nil {
					finished.Store(n)
					gens = append(gens, r2.Generation)
					err = ch.run(ctx, cfg.tr, root, op, next)
				}
			}
			cfg.tr.end(root)
			release()
			log.record(d, 0, err)
			if err != nil {
				upErr = err
				return
			}
		}
	}()
	go func() { // scanner: reads beside the writes
		defer wg.Done()
		for !done.Load() {
			release := cfg.exclusive()
			issued := finished.Load()
			v := vars[issued%churnVariants]
			res, err := scanner.Scan(ctx, id, v.body)
			release()
			if err != nil {
				scanErr = err
				return
			}
			log.addBytes(len(v.body))
			scans = append(scans, churnScan{issued: issued, started: started.Load(), matches: res.Matches})
		}
	}()
	wg.Wait()
	if err := w.close(); err != nil {
		return nil, err
	}
	if upErr != nil {
		return nil, fmt.Errorf("update: %w", upErr)
	}
	if scanErr != nil {
		return nil, fmt.Errorf("scan: %w", scanErr)
	}

	res := &result{Correct: true, Attempted: log.attempted, Failed: log.failed}
	if exact, err := checkChurn(gens, scans, vars); err != nil {
		cfg.logf("check: %v", err)
		res.Correct = false
	} else {
		cfg.logf("check: %d updates, generations consecutive; %d scans oracle-confirmed, %d of them report the exemplars the update before them added", len(gens), len(scans), exact)
	}
	res.Metrics, err = cfg.metrics(setup, log, w, "update", chainSpans...)
	return res, err
}

// checkChurn requires generations to rise by exactly one per update,
// and every scan's matches to be oracle-confirmed under a ruleset the
// scan could have run against: that of the update finished when it was
// sent, or of one begun before it returned. A scan that ran against the
// former reports the planted exemplars of the rules that update added;
// since the next update swaps its ruleset in only at its end, at least
// half of the scans must do so, or the service is serving stale rules.
func checkChurn(gens []int64, scans []churnScan, vars []*variant) (exact int, err error) {
	for i := 1; i < len(gens); i++ {
		if gens[i] != gens[i-1]+1 {
			return 0, fmt.Errorf("update %d returned generation %d after %d", i, gens[i], gens[i-1])
		}
	}
	for i, s := range scans {
		v := vars[s.issued%churnVariants]
		got := matchSet(s.matches)
		var firstErr error
		explained := false
		for n := s.issued; n <= s.started && !explained; n++ {
			err := confirm("churn", v.body, got, vars[n%churnVariants].lookup)
			if err == nil {
				explained = true
				if n == s.issued && reported("churn", got, v.plants) == nil {
					exact++
				}
			} else if firstErr == nil {
				firstErr = err
			}
		}
		if !explained {
			return 0, fmt.Errorf("scan %d, sent after update %d, returned before update %d began: %w", i, s.issued, s.started+1, firstErr)
		}
	}
	if 2*exact < len(scans) {
		return exact, fmt.Errorf("only %d of %d scans report the exemplars of the rules the update before them added", exact, len(scans))
	}
	return exact, nil
}

func (v *variant) lookup(p int) (*oracle, int) { return v.oracle, p }

// chain is the update path below the service, called directly: refmatch
// compile, hardware image (compile, map, bitstream) and the RAPD diff
// against the previous image, one span each. deltas holds the encoded
// size of each diff.
type chain struct {
	prev   *bitstream.Image
	deltas []int
}

var chainSpans = []string{"refmatch.compile.churn", "compile.compile", "mapper.map", "bitstream.build", "reconfig.diff"}

func newChain(ctx context.Context, patterns []string) (*chain, error) {
	img, err := buildImageTraced(ctx, nil, -1, -1, patterns)
	if err != nil {
		return nil, err
	}
	return &chain{prev: img}, nil
}
