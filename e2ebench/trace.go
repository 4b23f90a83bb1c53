package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/bitstream"
	"repro/internal/compile"
	"repro/internal/mapper"
	"repro/internal/prefilter"
	"repro/internal/reconfig"
	"repro/internal/refmatch"
)

// sweepBytes is the body each ruleset's whole matcher and per-engine
// sub-matchers scan in the traced run's layer sweep.
const sweepBytes = 32 << 10

// sweepEngines are the engines reported per ruleset, by metric prefix.
// An engine that holds no pattern of a ruleset reports 0.
var sweepEngines = []struct {
	name string
	e    refmatch.Engine
}{
	{"shiftand", refmatch.EngineShiftAnd},
	{"nbva", refmatch.EngineNBVA},
	{"dfa", refmatch.EngineDFA},
	{"nfa", refmatch.EngineNFA},
}

// engineSumTolerance bounds how far the per-engine sub-matcher times
// may sum from the whole matcher's: the whole matcher merges the engines'
// matches and shares one prefilter stream, which the parts do not, and
// the sums measured 0.75 to 1.19 of the whole on rulesets whose split
// is sound. A sub-matcher that ran another engine's patterns, or none,
// would land far outside.
const engineSumTolerance = 0.35

// churnSweepUpdates is how many churn variants the sweep takes through
// the compile path.
const churnSweepUpdates = 4

// run takes one churn variant through the update path below the service.
func (c *chain) run(ctx context.Context, tr *tracer, parent int, op int64, patterns []string) error {
	sp := tr.begin("refmatch.compile.churn", parent, op)
	_, err := refmatch.Compile(ctx, patterns, refmatch.Options{})
	tr.end(sp)
	if err != nil {
		return err
	}
	img, err := buildImageTraced(ctx, tr, parent, op, patterns)
	if err != nil {
		return err
	}
	sp = tr.begin("reconfig.diff", parent, op)
	data, err := reconfig.Diff(c.prev, img).MarshalBinary()
	tr.end(sp)
	if err != nil {
		return err
	}
	c.deltas = append(c.deltas, len(data))
	c.prev = img
	return nil
}

// buildImageTraced builds the deployment image of a ruleset the way the
// service prices an update: compile, map, bitstream.
func buildImageTraced(ctx context.Context, tr *tracer, parent int, op int64, patterns []string) (*bitstream.Image, error) {
	sp := tr.begin("compile.compile", parent, op)
	res, err := compile.CompileContext(ctx, patterns, compile.Options{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if len(res.Errors) != 0 {
		return nil, res.Errors[0]
	}
	sp = tr.begin("mapper.map", parent, op)
	pl, err := mapper.Map(res, mapper.Options{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("bitstream.build", parent, op)
	img, err := bitstream.Build(res, pl)
	tr.end(sp)
	return img, err
}

// sweep times each layer's public functions directly, the same way in
// every workload's traced run: per ruleset the whole matcher and one
// sub-matcher per engine on a seeded body; the flow program fed in
// packet-sized chunks; and churn variants through the compile path. ok
// is false when the per-engine match sets do not add up to the whole,
// or their scan times not to the whole's within engineSumTolerance.
func sweep(ctx context.Context, cfg runConfig) (map[string]metric, bool, error) {
	tr := cfg.tr
	sets, err := loadRulesets()
	if err != nil {
		return nil, false, err
	}
	out := map[string]metric{}
	ok := true
	msPerMB := func(d time.Duration, n int) float64 { return float64(d) / 1e6 / (float64(n) / 1e6) }
	for r, rs := range sets {
		root := tr.begin("sweep."+rs.name, -1, -1)
		body, _ := plantBody(rngFor(cfg.seed, "sweep", r), sweepBytes, rs.alphabet, rs.oracle, rs.patterns,
			allIndices(len(rs.patterns)), plantBudget(sweepBytes))
		sp := tr.begin("refmatch.compile."+rs.name, root, -1)
		whole, err := refmatch.Compile(ctx, rs.patterns, refmatch.Options{})
		compileD := tr.end(sp)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", rs.name, err)
		}
		steppers := 0
		byEngine := map[refmatch.Engine][]int{}
		for i, e := range whole.Engines() {
			byEngine[e] = append(byEngine[e], i)
			if e != refmatch.EngineShiftAnd {
				steppers++
			}
		}
		// The whole matcher first, then one sub-matcher per engine that
		// holds patterns; idx maps a sub-matcher's patterns back.
		scans := []*timedScan{{name: "refmatch", sess: whole.NewSession()}}
		for _, eng := range sweepEngines {
			idx := byEngine[eng.e]
			if len(idx) == 0 {
				out[eng.name+".ms_per_mb."+rs.name] = metric{0, "ms/MB"}
				continue
			}
			pats := make([]string, len(idx))
			for j, i := range idx {
				pats[j] = rs.patterns[i]
			}
			sub, err := refmatch.Compile(ctx, pats, refmatch.Options{})
			if err != nil {
				return nil, false, fmt.Errorf("%s %s sub-matcher: %w", rs.name, eng.name, err)
			}
			for _, e := range sub.Engines() {
				if e != eng.e {
					cfg.logf("%s: a %s pattern compiled alone lands on %s", rs.name, eng.name, e)
					ok = false
				}
			}
			scans = append(scans, &timedScan{name: eng.name, sess: sub.NewSession(), idx: idx})
		}
		runScans(tr, root, rs.name, scans, body)
		tr.end(root)

		want := keys(scans[0].matches, nil)
		var union []matchKey
		var engineSum time.Duration
		for _, sc := range scans[1:] {
			engineSum += sc.best
			out[sc.name+".ms_per_mb."+rs.name] = metric{msPerMB(sc.best, len(body)), "ms/MB"}
			union = keys(sc.matches, sc.idx, union...)
		}
		sortKeys(union)
		if !equalSets(union, want) {
			cfg.logf("%s: per-engine match sets hold %d matches, the whole matcher %d", rs.name, len(union), len(want))
			ok = false
		}
		wholeD := scans[0].best
		ratio := float64(engineSum) / float64(wholeD)
		verdict := "within"
		if math.Abs(ratio-1) > engineSumTolerance {
			verdict = "outside"
			ok = false
		}
		cfg.logf("%s: per-engine sub-matchers sum to %.3f of the whole matcher's scan time, %s ±%.0f%%", rs.name, ratio, verdict, 100*engineSumTolerance)
		pf := scans[0].sess.PrefilterStats()
		out["refmatch.compile_ms."+rs.name] = metric{float64(compileD) / 1e6, "ms"}
		out["refmatch.ms_per_mb."+rs.name] = metric{msPerMB(wholeD, len(body)), "ms/MB"}
		out["refmatch.step_runners."+rs.name] = metric{float64(steppers), "count"}
		out["prefilter.skip_share."+rs.name] = metric{skipShare(pf), "ratio"}
	}

	// The flow program, fed in packet-sized chunks.
	fp, err := buildFlowProgram(ctx, sets)
	if err != nil {
		return nil, false, err
	}
	corpus := flowCorpus(cfg.seed, sets, fp)
	root := tr.begin("sweep.flow", -1, -1)
	sp := tr.begin("refmatch.compile.flow", root, -1)
	fm, err := refmatch.Compile(ctx, fp.patterns, refmatch.Options{})
	compileD := tr.end(sp)
	if err != nil {
		return nil, false, err
	}
	rng := rngFor(cfg.seed, "sweep-flow", 0)
	sess := fm.NewSession()
	var feedD time.Duration
	feeds := 0
	for off := 0; off < len(corpus); feeds++ {
		n := chunkMin + rng.Intn(chunkMax-chunkMin+1)
		if n > len(corpus)-off {
			n = len(corpus) - off
		}
		sp = tr.begin("refmatch.feed.flow", root, int64(feeds))
		sess.Feed(corpus[off : off+n])
		feedD += tr.end(sp)
		off += n
	}
	sess.Finish()
	tr.end(root)
	out["refmatch.compile_ms.flow"] = metric{float64(compileD) / 1e6, "ms"}
	out["refmatch.feed_us_per_op"] = metric{float64(feedD) / 1e3 / float64(feeds), "us"}
	out["prefilter.skip_share.flow"] = metric{skipShare(sess.PrefilterStats()), "ratio"}

	// Churn variants through the compile path.
	base, donor := byName(sets, churnBase), byName(sets, churnDonor)
	vars, err := makeVariants(cfg.seed, base, donor)
	if err != nil {
		return nil, false, err
	}
	root = tr.begin("sweep.churn", -1, -1)
	ch, err := newChain(ctx, base.patterns)
	if err != nil {
		return nil, false, err
	}
	for k := 0; k < churnSweepUpdates; k++ {
		if err := ch.run(ctx, tr, root, int64(k), vars[k].patterns); err != nil {
			return nil, false, err
		}
	}
	tr.end(root)
	// Only the sweep's own updates count: a churn run's loop makes the
	// same calls under its ops' spans.
	meanMS := func(name string) float64 { return mean(tr.durations(name, root)) / 1e6 }
	out["refmatch.compile_ms.churn"] = metric{meanMS("refmatch.compile.churn"), "ms"}
	out["compile.ms"] = metric{meanMS("compile.compile"), "ms"}
	out["mapper.ms"] = metric{meanMS("mapper.map"), "ms"}
	out["bitstream.ms"] = metric{meanMS("bitstream.build"), "ms"}
	out["reconfig.diff_ms"] = metric{meanMS("reconfig.diff"), "ms"}
	deltas := make([]float64, len(ch.deltas))
	for i, n := range ch.deltas {
		deltas[i] = float64(n)
	}
	out["reconfig.delta_bytes"] = metric{mean(deltas), "bytes"}
	return out, ok, nil
}

// sweepReps is how many times the sweep scans each body. It reports the
// fastest: interference from other processes only ever adds time. Fewer
// or shorter rounds let one ruleset's per-engine sum move by a fifth
// between runs on the same body.
const sweepReps = 9

// timedScan is one matcher of the sweep: its session, the map from its
// pattern indices to the ruleset's (nil for the whole matcher), and the
// outcome of its scans.
type timedScan struct {
	name    string
	sess    *refmatch.Session
	idx     []int
	matches []refmatch.Match
	best    time.Duration
}

// runScans scans body with every matcher in turn, sweepReps rounds, one
// span per scan. Interleaving the matchers spreads the host's slow and
// fast phases over all of them alike.
func runScans(tr *tracer, parent int, rs string, scans []*timedScan, body []byte) {
	runtime.GC() // no collection left over from compiling overlaps the scans
	for rep := 0; rep < sweepReps; rep++ {
		for _, sc := range scans {
			sp := tr.begin(sc.name+".scan."+rs, parent, int64(rep))
			sc.matches = sc.sess.ScanInto(body, nil)
			if d := tr.end(sp); rep == 0 || d < sc.best {
				sc.best = d
			}
		}
	}
}

func skipShare(pf prefilter.Stats) float64 {
	if seen := pf.ScannedBytes + pf.SkippedBytes; seen > 0 {
		return float64(pf.SkippedBytes) / float64(seen)
	}
	return 0
}

// keys appends ms to dst as match keys, mapping pattern indices through
// idx when it is non-nil.
func keys(ms []refmatch.Match, idx []int, dst ...matchKey) []matchKey {
	for _, m := range ms {
		p := m.Pattern
		if idx != nil {
			p = idx[p]
		}
		dst = append(dst, matchKey{p, m.End})
	}
	if idx == nil {
		sortKeys(dst)
	}
	return dst
}

func sortKeys(ks []matchKey) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].End != ks[j].End {
			return ks[i].End < ks[j].End
		}
		return ks[i].Pattern < ks[j].Pattern
	})
}

func byName(sets []*ruleset, name string) *ruleset {
	for _, rs := range sets {
		if rs.name == name {
			return rs
		}
	}
	panic("no ruleset " + name)
}
