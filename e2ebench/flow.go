package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/refmatch"
	"repro/pkg/rapclient"
)

const (
	flowSlots        = 256       // concurrent sessions
	flowSegmentBytes = 128 << 10 // corpus bytes per ruleset
	flowBudgetMin    = 16 << 10  // flow length range, uniform
	flowBudgetMax    = 64 << 10
	chunkMin         = 64 // packet-sized chunks, uniform
	chunkMax         = 1500
)

// flowProgram is the Shift-And rules of all seven rulesets, as refmatch
// places them when it compiles each ruleset alone.
type flowProgram struct {
	patterns []string
	byRS     [][]int // flow pattern indices per ruleset
	oracle   *oracle
}

func buildFlowProgram(ctx context.Context, sets []*ruleset) (*flowProgram, error) {
	fp := &flowProgram{byRS: make([][]int, len(sets))}
	for r, rs := range sets {
		m, err := refmatch.Compile(ctx, rs.patterns, refmatch.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rs.name, err)
		}
		for i, e := range m.Engines() {
			if e == refmatch.EngineShiftAnd {
				fp.byRS[r] = append(fp.byRS[r], len(fp.patterns))
				fp.patterns = append(fp.patterns, rs.patterns[i])
			}
		}
	}
	o, err := newOracle(fp.patterns)
	if err != nil {
		return nil, err
	}
	fp.oracle = o
	return fp, nil
}

// flowCorpus is one segment per ruleset: that ruleset's background
// alphabet with exemplars of its Shift-And rules planted. Every flow is
// a seeded window of it.
func flowCorpus(seed int64, sets []*ruleset, fp *flowProgram) []byte {
	var corpus []byte
	for r, rs := range sets {
		seg, _ := plantBody(rngFor(seed, "corpus", r), flowSegmentBytes, rs.alphabet, fp.oracle, fp.patterns,
			fp.byRS[r], plantBudget(flowSegmentBytes))
		corpus = append(corpus, seg...)
	}
	return corpus
}

// flowSlot is one of the concurrent sessions, reopened on a new flow
// each time its byte budget is spent.
type flowSlot struct {
	rng    *rand.Rand
	off    int // the flow's window of the corpus
	budget int
	sent   int
	chunks int
	got    []matchKey
	sess   *rapclient.Session
	// Traced runs feed the same chunks to an in-process service session
	// and to a refmatch.Session of the program's Matcher.
	shadow string
	direct *refmatch.Session
}

// flowRecord is a closed flow, kept for the checks.
type flowRecord struct {
	off, length, chunks int
	got                 []matchKey
	summary             rapclient.SessionSummary
}

type flowRun struct {
	cfg     runConfig
	srv     *server
	id      string
	matcher *refmatch.Matcher
	corpus  []byte
	mu      sync.Mutex
	flows   []flowRecord
}

func (f *flowRun) open(ctx context.Context, cl *client, s *flowSlot) error {
	s.budget = flowBudgetMin + s.rng.Intn(flowBudgetMax-flowBudgetMin+1)
	s.off = s.rng.Intn(len(f.corpus) - s.budget + 1)
	s.sent, s.chunks, s.got = 0, 0, nil
	sess, err := cl.OpenSession(ctx, f.id)
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	s.sess = sess
	if f.cfg.tr != nil {
		if s.shadow, err = f.srv.svc.OpenSession(ctx, f.id); err != nil {
			return fmt.Errorf("open in-process session: %w", err)
		}
		if s.direct == nil {
			s.direct = f.matcher.NewSession()
		} else {
			s.direct.Reset()
		}
	}
	return nil
}

// feed sends the slot's next chunk: one measured op.
func (f *flowRun) feed(ctx context.Context, cl *client, s *flowSlot, log *opLog, op int64) error {
	n := chunkMin + s.rng.Intn(chunkMax-chunkMin+1)
	if n > s.budget-s.sent {
		n = s.budget - s.sent
	}
	chunk := f.corpus[s.off+s.sent : s.off+s.sent+n]
	tr := f.cfg.tr
	release := f.cfg.exclusive()
	root := tr.begin("op.feed", -1, op)
	sp := tr.begin("http.feed", root, op)
	before := cl.respBytes.Load()
	t0 := time.Now()
	res, err := s.sess.Feed(ctx, chunk)
	d := time.Since(t0)
	tr.end(sp)
	if err == nil && tr != nil {
		f.cfg.respBytes.Add(cl.respBytes.Load() - before)
		sp = tr.begin("service.feed", root, op)
		_, err = f.srv.svc.Feed(ctx, s.shadow, chunk)
		tr.end(sp)
		sp = tr.begin("refmatch.feed", root, op)
		s.direct.Feed(chunk)
		tr.end(sp)
	}
	tr.end(root)
	release()
	if log != nil {
		log.record(d, n, err)
	}
	if err != nil {
		return err
	}
	s.sent += n
	s.chunks++
	for _, m := range res.Matches {
		s.got = append(s.got, matchKey{m.Pattern, m.End})
	}
	if s.sent == s.budget {
		if err := f.close(ctx, s); err != nil {
			return err
		}
		return f.open(ctx, cl, s)
	}
	return nil
}

func (f *flowRun) close(ctx context.Context, s *flowSlot) error {
	res, err := s.sess.Close(ctx)
	if err != nil {
		return fmt.Errorf("close session: %w", err)
	}
	if f.cfg.tr != nil {
		if _, _, err := f.srv.svc.CloseSession(ctx, s.shadow); err != nil {
			return fmt.Errorf("close in-process session: %w", err)
		}
		s.direct.Finish()
	}
	for _, m := range res.Matches {
		s.got = append(s.got, matchKey{m.Pattern, m.End})
	}
	f.mu.Lock()
	f.flows = append(f.flows, flowRecord{off: s.off, length: s.sent, chunks: s.chunks, got: s.got, summary: res.Summary})
	f.mu.Unlock()
	s.sess = nil
	return nil
}

func runFlowStream(ctx context.Context, cfg runConfig) (*result, error) {
	sets, err := loadRulesets()
	if err != nil {
		return nil, err
	}
	fp, err := buildFlowProgram(ctx, sets)
	if err != nil {
		return nil, err
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	cls := []*client{srv.newClient(), srv.newClient()}
	prog, err := cls[0].Compile(ctx, fp.patterns, nil)
	if err != nil {
		return nil, fmt.Errorf("compile flow program: %w", err)
	}
	f := &flowRun{cfg: cfg, srv: srv, id: prog.ID, corpus: flowCorpus(cfg.seed, sets, fp)}
	if p, ok := srv.svc.Program(prog.ID); ok {
		f.matcher = p.Matcher
	}
	// Slot s belongs to client s%clients; each client feeds its slots
	// round-robin, one chunk per slot per round.
	slots := make([][]*flowSlot, clients)
	for s := 0; s < flowSlots; s++ {
		slot := &flowSlot{rng: rngFor(cfg.seed, "flow", s)}
		if err := f.open(ctx, cls[s%clients], slot); err != nil {
			return nil, err
		}
		slots[s%clients] = append(slots[s%clients], slot)
	}
	for g, cl := range cls { // warm-up round, not measured
		for _, s := range slots[g] {
			if err := f.feed(ctx, cl, s, nil, -1); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	setup, err := sinceProcessStart()
	if err != nil {
		return nil, err
	}

	log := &opLog{}
	deadline := time.Now().Add(cfg.seconds)
	w, err := openWindow()
	if err != nil {
		return nil, err
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g, cl := range cls {
		wg.Add(1)
		go func(g int, cl *client) {
			defer wg.Done()
			op := int64(g)
			for {
				for _, s := range slots[g] {
					if err := f.feed(ctx, cl, s, log, op); err != nil {
						errs[g] = err
						return
					}
					op += clients
				}
				if time.Now().After(deadline) {
					return
				}
			}
		}(g, cl)
	}
	wg.Wait()
	if err := w.close(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for g := range cls {
		for _, s := range slots[g] {
			if err := f.close(ctx, s); err != nil {
				return nil, err
			}
		}
	}

	res := &result{Correct: true, Attempted: log.attempted, Failed: log.failed}
	if err := f.check(ctx, cls); err != nil {
		cfg.logf("check: %v", err)
		res.Correct = false
	} else {
		cfg.logf("check: %d flows: feed+close matches equal a one-shot scan, summaries match what was sent", len(f.flows))
	}
	res.Metrics, err = cfg.metrics(setup, log, w, "feed", "refmatch.feed")
	return res, err
}

// check requires, for every flow, that its concatenated Feed and Close
// matches equal a one-shot scan of the same bytes, and that the closed
// session's summary counts the bytes and chunks the client sent.
func (f *flowRun) check(ctx context.Context, cls []*client) error {
	errs := make([]error, len(cls))
	var wg sync.WaitGroup
	for g, cl := range cls {
		wg.Add(1)
		go func(g int, cl *client) {
			defer wg.Done()
			for i := g; i < len(f.flows); i += len(cls) {
				fl := f.flows[i]
				if fl.summary.Bytes != int64(fl.length) || fl.summary.Chunks != int64(fl.chunks) {
					errs[g] = fmt.Errorf("flow %d: summary says %d bytes in %d chunks, client sent %d in %d",
						i, fl.summary.Bytes, fl.summary.Chunks, fl.length, fl.chunks)
					return
				}
				res, err := cl.Scan(ctx, f.id, f.corpus[fl.off:fl.off+fl.length])
				if err != nil {
					errs[g] = fmt.Errorf("flow %d: one-shot scan: %w", i, err)
					return
				}
				got := append([]matchKey(nil), fl.got...)
				sortKeys(got)
				if want := matchSet(res.Matches); !equalSets(got, want) {
					errs[g] = fmt.Errorf("flow %d: streamed %d matches, one-shot scan %d", i, len(got), len(want))
					return
				}
			}
		}(g, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
