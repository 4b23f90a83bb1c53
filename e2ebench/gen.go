package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/workload"
)

// rulesetSeed fixes the seven §5.1 rulesets (the seed every rapbench
// experiment defaults to). The benchmark's --seed varies the traffic:
// scan bodies, flow bytes and chunking, and the churn swaps.
const rulesetSeed = 1

// plantBudget is the bytes of an n-byte body given to planted
// exemplars: 2%, as in workload.Input, well under the <10% match rate
// the paper assumes (§3.3).
func plantBudget(n int) int { return n / 50 }

// ruleset is one §5.1 ruleset with its oracle.
type ruleset struct {
	name     string
	patterns []string
	alphabet string
	oracle   *oracle
}

func loadRuleset(name string) (*ruleset, error) {
	d, err := workload.Generate(name, 1, rulesetSeed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(d.Patterns)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &ruleset{name: name, patterns: d.Patterns, alphabet: d.Alphabet, oracle: o}, nil
}

func loadRulesets() ([]*ruleset, error) {
	var out []*ruleset
	for _, name := range workload.Names {
		rs, err := loadRuleset(name)
		if err != nil {
			return nil, err
		}
		out = append(out, rs)
	}
	return out, nil
}

// plant is one exemplar placed in a body: pattern index, first byte and
// last byte (inclusive, the offset the matcher reports as End).
type plant struct {
	Pattern, Off, End int
}

// plantBody returns n bytes of background drawn uniformly from alphabet
// with exemplars of patterns[cands[...]] planted in it. The planting
// rule: draw a candidate pattern uniformly, make an exemplar with
// workload.Exemplar, keep it only if the oracle confirms it matches as a
// whole, and place it at a uniform offset that overlaps no earlier
// exemplar (16 tries, else drop it). Planting stops once budget bytes
// are planted or after 8 draws per candidate. Plants come back sorted by
// offset.
func plantBody(r *rand.Rand, n int, alphabet string, o *oracle, patterns []string, cands []int, budget int) ([]byte, []plant) {
	body := make([]byte, n)
	for i := range body {
		body[i] = alphabet[r.Intn(len(alphabet))]
	}
	var plants []plant
	planted := 0
	for draws := 0; planted < budget && draws < 8*len(cands); draws++ {
		p := cands[r.Intn(len(cands))]
		ex := workload.Exemplar(patterns[p], r)
		if len(ex) == 0 || len(ex) > n || !o.exact(p, ex) {
			continue
		}
		for try := 0; try < 16; try++ {
			off := r.Intn(n - len(ex) + 1)
			if overlaps(plants, off, off+len(ex)-1) {
				continue
			}
			copy(body[off:], ex)
			plants = append(plants, plant{Pattern: p, Off: off, End: off + len(ex) - 1})
			planted += len(ex)
			break
		}
	}
	sort.Slice(plants, func(i, j int) bool { return plants[i].Off < plants[j].Off })
	return body, plants
}

func overlaps(plants []plant, lo, hi int) bool {
	for _, p := range plants {
		if lo <= p.End && p.Off <= hi {
			return true
		}
	}
	return false
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// rngFor derives an independent generator for one purpose and index
// from the run seed.
func rngFor(seed int64, purpose string, i int) *rand.Rand {
	h := seed*1_000_003 + int64(i)*7_919
	for _, c := range purpose {
		h = h*31 + int64(c)
	}
	return rand.New(rand.NewSource(h))
}
