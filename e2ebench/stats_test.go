package main

import (
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100 .. 1
	}
	if got, err := percentile(xs, 90); err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 (rank 90, 10 beyond)", got, err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if got, err := percentile(xs[:20], 50); err != nil || got != 90 {
		t.Fatalf("p50 of 100..81 = %v, %v; want 90 (rank 10)", got, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if xs[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
}

func TestMinSamplesIsTheSmallestAccepted(t *testing.T) {
	for _, c := range []struct{ p, want int }{{50, 20}, {90, 100}} {
		if got := minSamples(c.p); got != c.want {
			t.Fatalf("minSamples(%d) = %d, want %d", c.p, got, c.want)
		}
		xs := make([]float64, c.want)
		if _, err := percentile(xs, c.p); err != nil {
			t.Fatalf("p%d of minSamples samples refused: %v", c.p, err)
		}
		if _, err := percentile(xs[1:], c.p); err == nil {
			t.Fatalf("p%d of one sample fewer accepted", c.p)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 2048<<10 {
		t.Fatalf("parseVmHWM = %d, %v; want %d", got, err, 2048<<10)
	}
	for _, bad := range []string{"VmRSS:\t1 kB\n", "VmHWM:\t12 MB\n", "VmHWM:\tx kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted malformed input", bad)
		}
	}
}

func TestReadersOnThisProcess(t *testing.T) {
	rss, err := peakRSS()
	if err != nil || rss <= 0 {
		t.Fatalf("peakRSS = %d, %v", rss, err)
	}
	c0, err := cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		x++
	}
	c1, err := cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	if d := c1 - c0; d < 10*time.Millisecond {
		t.Fatalf("50ms of spinning (%d iterations) added only %v of CPU time", x, d)
	}
	up, err := sinceProcessStart()
	if err != nil || up <= 0 || up > time.Hour {
		t.Fatalf("sinceProcessStart = %v, %v", up, err)
	}
}

func TestParseStartTicks(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (a) b (c) S 1 4242 4242 0 -1 4194560 100 0 0 0 5 3 0 0 20 0 1 0 987654 1000 100\n"
	got, err := parseStartTicks([]byte(stat))
	if err != nil || got != 987654 {
		t.Fatalf("parseStartTicks = %d, %v; want 987654", got, err)
	}
	if _, err := parseStartTicks([]byte("4242 (a) S 1")); err == nil {
		t.Fatal("a short stat line was accepted")
	}
}
