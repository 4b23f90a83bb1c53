package main

import "testing"

func TestPlantedExemplarsNeverOverlap(t *testing.T) {
	sets, err := loadRulesets()
	if err != nil {
		t.Fatal(err)
	}
	for r, rs := range sets {
		for seed := int64(1); seed <= 3; seed++ {
			const n = 8 << 10
			body, plants := plantBody(rngFor(seed, "test", r), n, rs.alphabet, rs.oracle, rs.patterns,
				allIndices(len(rs.patterns)), n/8)
			if len(plants) == 0 {
				t.Fatalf("%s seed %d: nothing planted", rs.name, seed)
			}
			for i, p := range plants {
				if p.Off < 0 || p.End >= n || p.End < p.Off {
					t.Fatalf("%s: plant %+v outside the body", rs.name, p)
				}
				if i > 0 && plants[i-1].End >= p.Off {
					t.Fatalf("%s seed %d: plants %+v and %+v overlap", rs.name, seed, plants[i-1], p)
				}
				if !rs.oracle.exact(p.Pattern, body[p.Off:p.End+1]) {
					t.Fatalf("%s: bytes at %+v are not a whole match of pattern %d", rs.name, p, p.Pattern)
				}
			}
			again, _ := plantBody(rngFor(seed, "test", r), n, rs.alphabet, rs.oracle, rs.patterns,
				allIndices(len(rs.patterns)), n/8)
			if string(again) != string(body) {
				t.Fatalf("%s seed %d: the same seed made different bodies", rs.name, seed)
			}
		}
	}
}
