package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestOpenSchedule(t *testing.T) {
	const n, poolLen = 25, 8
	interval := 10 * time.Millisecond
	s := openSchedule(n, interval, poolLen)
	if len(s) != n {
		t.Fatalf("%d slots, want %d", len(s), n)
	}
	for k, sl := range s {
		if want := time.Duration(k) * interval; sl.due != want {
			t.Errorf("slot %d due %v, want %v", k, sl.due, want)
		}
		if sl.pool != k%poolLen {
			t.Errorf("slot %d takes pool entry %d, want %d", k, sl.pool, k%poolLen)
		}
		if sl.conn != k%conns {
			t.Errorf("slot %d on connection %d, want %d", k, sl.conn, k%conns)
		}
	}
	// With an even pool, one pool entry only ever rides one connection,
	// so two connections never patch the same stream's stamps at once.
	owner := map[int]int{}
	for _, sl := range s {
		if c, ok := owner[sl.pool]; ok && c != sl.conn {
			t.Fatalf("pool entry %d on connections %d and %d", sl.pool, c, sl.conn)
		}
		owner[sl.pool] = sl.conn
	}
}

func TestFrameDue(t *testing.T) {
	base := time.Unix(1000, 0)
	for _, c := range []struct {
		before uint64
		rate   float64
		want   time.Duration
	}{
		{0, 1e6, 0},
		{512, 1e6, 512 * time.Microsecond},
		{10e6, 10e6, time.Second},
		{165_000, 10e6, 16500 * time.Microsecond},
	} {
		if got := frameDue(base, c.before, c.rate).Sub(base); got != c.want {
			t.Errorf("frameDue(%d events at %g/s) = %v, want %v", c.before, c.rate, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for p, want := range map[float64]float64{50: 500, 90: 900, 99: 990, 100: 1000, 0.01: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g of 1..1000 = %g, want %g", p, got, want)
		}
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", got)
	}
	if got := beyond(110, 90); got != 11 {
		t.Errorf("beyond(110, p90) = %d, want 11", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
	if xs[0] == 1 && xs[999] == 1000 {
		t.Error("percentile sorted its input in place")
	}
}

func TestPercentileExponential(t *testing.T) {
	// Quantiles of Exp(λ) are -ln(1-q)/λ.
	const lambda = 2.0
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 200_000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() / lambda
	}
	for _, q := range []float64{50, 90, 99} {
		want := -math.Log(1-q/100) / lambda
		if got := percentile(xs, q); math.Abs(got-want)/want > 0.03 {
			t.Errorf("p%g = %.4f, want %.4f within 3%%", q, got, want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test holds the
// output against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload end to end at a tiny size against
// daemons built from this checkout, with every correctness check on,
// and holds the reported metrics to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/svdd", "repro/cmd/svdreplay")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}
	work := t.TempDir()
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := run(options{workload: w.Name, seed: 3, seconds: 1, trace: true, smoke: true, bin: bin, work: work})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, "end_to_end", res.Metrics, spec.EndToEnd)
			checkMetrics(t, "per_layer", res.layers, spec.PerLayer)
			for _, m := range spec.EndToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %g, want > 0", m.Name, v)
				}
			}
		})
	}
	traces, _ := filepath.Glob(filepath.Join(work, "traces", "*.trace.json"))
	if len(traces) != len(spec.Workloads) {
		t.Errorf("%d Chrome traces written, want %d", len(traces), len(spec.Workloads))
	}
	for _, path := range traces {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct{ TraceEvents []map[string]any }
		if err := json.Unmarshal(raw, &tr); err != nil || len(tr.TraceEvents) < 2 {
			t.Errorf("%s: not a loadable trace (%d events): %v", path, len(tr.TraceEvents), err)
		}
	}
}

func checkMetrics(t *testing.T, kind string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s missing", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s metric %s in %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s metric %s = %g", kind, m.Name, g.Value)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for name := range got {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		t.Errorf("%s: reported %v, BENCHMARK.json lists %v", kind, extra, names)
	}
}
