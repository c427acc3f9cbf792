// Command perfbench is the repository's end-to-end benchmark of the
// served detection path. It builds nothing itself: run.sh builds svdd,
// svdreplay and this driver from the checkout and runs
//
//	perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// The daemon under test runs as its own process(es), so its CPU time
// and peak resident set come from the kernel's accounting of those
// processes. This process is the load generator: it records every
// stream from the VM and encodes it to wire bytes before the timed
// phase, computes each stream's reference verdict in-process with
// report.Run, and checks every served verdict against it.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the same served run is made
// and a separate in-process traced run adds the per-layer metrics, a
// Chrome trace and a layer table (README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/server"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	layers map[string]metric // the traced run's metrics, with --trace 1
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // tiny inputs, every check still on
	bin      string // directory holding svdd and svdreplay
	work     string // directory for scratch files and trace output
}

// setupReps is how many times each run launches its daemon(s) to time
// set-up; the last launch serves the timed phase.
const setupReps = 15

// Open-loop make-up of churn-journaled (README.md explains the sizes).
const (
	churnStreamsPerSec = 80
	churnEventRate     = 10e6 // events/s within one stream
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "steady-mix, churn-journaled or cluster-relay")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: picks the scheduler seeds of every stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 adds the in-process traced run and reports per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs for a quick check; figures are not comparable")
	flag.StringVar(&o.bin, "bin", "", "directory holding the svdd and svdreplay binaries")
	flag.StringVar(&o.work, "work", "", "directory for scratch files and trace output")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.trace {
		res.Metrics = res.layers
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
	if !res.Correct {
		os.Exit(1)
	}
}

// run makes one benchmark run of one workload.
func run(o options) (*result, error) {
	if o.bin == "" || o.work == "" {
		return nil, errors.New("-bin and -work are required (run.sh sets both)")
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	for _, b := range []string{"svdd", "svdreplay"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return nil, fmt.Errorf("daemon binary: %w", err)
		}
	}
	dir, err := os.MkdirTemp(o.work, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{o: o, dir: dir}
	switch o.workload {
	case "steady-mix":
		return b.steadyMix()
	case "churn-journaled":
		return b.churnJournaled()
	case "cluster-relay":
		return b.clusterRelay()
	default:
		return nil, fmt.Errorf("unknown --workload %q (steady-mix, churn-journaled, cluster-relay)", o.workload)
	}
}

// bench carries one run's options and scratch directory.
type bench struct {
	o   options
	dir string
}

// table2 are the Table-2 programs of steady-mix and cluster-relay.
var table2 = []string{"apache-buggy", "apache-fixed", "mysql-tables", "mysql-prepared-buggy", "pgsql-oltp"}

// steadySpecs is the closed-loop pool: every Table-2 program under two
// seeds, interleaved so consecutive streams differ in program.
func (b *bench) steadySpecs() []streamSpec {
	scale := 4
	if b.o.smoke {
		scale = 1
	}
	var specs []streamSpec
	for j := range uint64(2) {
		for _, name := range table2 {
			specs = append(specs, streamSpec{Name: name, Scale: scale, Seed: b.o.seed*16 + j})
		}
	}
	return specs
}

// churnSpecs is one open-loop pool: cycles of three queue-buggy and
// three queue-fixed streams, then one mysql-prepared-buggy and one
// mysql-prepared-fixed, every stream under its own seed from base.
func churnSpecs(base uint64, cycles int) []streamSpec {
	pattern := []string{"queue-buggy", "queue-fixed", "queue-buggy", "queue-fixed",
		"queue-buggy", "queue-fixed", "mysql-prepared-buggy", "mysql-prepared-fixed"}
	var specs []streamSpec
	for c := range cycles {
		for i, name := range pattern {
			specs = append(specs, streamSpec{Name: name, Scale: 1, Seed: base + uint64(c*len(pattern)+i)})
		}
	}
	return specs
}

// launch times set-up setupReps times and keeps the last fleet running.
// start launches one fleet (after any untimed preparation of its own)
// and returns the instant the launch began.
func (b *bench) launch(start func(rep int) ([]*daemon, time.Time, error), ready func([]*daemon) error) ([]*daemon, float64, error) {
	reps := setupReps
	if b.o.smoke {
		reps = 3
	}
	var times []float64
	for rep := range reps {
		ds, t0, err := start(rep)
		if err != nil {
			killAll(ds)
			return nil, 0, err
		}
		if err := ready(ds); err != nil {
			killAll(ds)
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == reps-1 {
			fmt.Fprintf(os.Stderr, "perfbench: set-up times %v s\n", times)
			return ds, median(times), nil
		}
		killAll(ds)
	}
	panic("unreachable")
}

// duration is the length of the timed phase.
func (b *bench) duration() time.Duration {
	return time.Duration(b.o.seconds * float64(time.Second))
}

// standalone starts one svdd with extra flags on a fresh port.
func (b *bench) standalone(extra func(rep int) ([]string, error)) func(int) ([]*daemon, time.Time, error) {
	return func(rep int) ([]*daemon, time.Time, error) {
		addrs, err := freeAddrs(1)
		if err != nil {
			return nil, time.Time{}, err
		}
		addr := addrs[0]
		args := []string{"-listen", addr}
		if extra != nil {
			more, err := extra(rep)
			if err != nil {
				return nil, time.Time{}, err
			}
			args = append(args, more...)
		}
		t0 := time.Now()
		d, err := startDaemon(b.o.bin, "standalone", addr, "", args)
		if err != nil {
			return nil, t0, err
		}
		return []*daemon{d}, t0, nil
	}
}

func listening(ds []*daemon) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, d := range ds {
		if err := d.waitListening(deadline); err != nil {
			return err
		}
	}
	return nil
}

// stat reads the fleet's kernel accounting.
func stat(ds []*daemon) func() (procStat, error) {
	return func() (procStat, error) { return fleetStat(ds) }
}

// endToEnd renders the end-to-end metrics of one served phase. The
// rates come from the phase's better windows: the 90th percentile of
// window throughput and the 10th of window CPU per event. Other
// tenants of a shared host can only slow a window down, so the better
// windows estimate the daemon's own cost, while taking the tenth best
// rather than the best keeps one lucky window from setting it. Verdict
// tails are printed but not reported: on a shared host they spread
// between runs by more than any bound the benchmark may set.
func endToEnd(setup float64, out *served, hwmKiB uint64) (map[string]metric, error) {
	if len(out.verdicts) == 0 || len(out.windows) == 0 {
		return nil, errNoStreams
	}
	n := len(out.verdicts)
	fmt.Fprintf(os.Stderr, "perfbench: verdict latency over %d streams: p50 %.3f ms, p90 %.3f ms (%d beyond), p99 %.3f ms (%d beyond)\n",
		n, median(out.verdicts), percentile(out.verdicts, 90), beyond(n, 90), percentile(out.verdicts, 99), beyond(n, 99))
	var eps, cpu []float64
	for _, w := range out.windows {
		eps = append(eps, float64(w.events)/w.wall.Seconds())
		cpu = append(cpu, float64(w.cpu.Nanoseconds())/float64(w.events))
	}
	fmt.Fprintf(os.Stderr, "perfbench: window events/s %.4g\nperfbench: window cpu ns/event %.4g\n", eps, cpu)
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"throughput_eps":   {percentile(eps, 90), "events/s"},
		"cpu_ns_per_event": {percentile(cpu, 10), "ns/event"},
		"rss_peak_mib":     {float64(hwmKiB) / 1024, "MiB"},
		"verdict_p50_ms":   {median(out.verdicts), "ms"},
	}, nil
}

// finish turns a served phase into the run's result.
func (b *bench) finish(out *served, e2e map[string]metric, layers func() (map[string]metric, error)) (*result, error) {
	res := &result{Correct: len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: e2e}
	for _, err := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d streams attempted, %d failed, %d verified, %d events in %.3f s\n",
		b.o.workload, b.o.seed, out.attempted, out.failed, len(out.order), out.events, out.wall.Seconds())
	if b.o.trace {
		m, err := layers()
		if err != nil {
			return nil, err
		}
		res.layers = m
	}
	return res, nil
}

// traced runs the in-process traced run and adds the metrics the
// served run measured for the per-layer table.
func (b *bench) traced(pool []*stream, captureDir string, captureStreams int, relayed, lateness float64) (map[string]metric, error) {
	label := b.o.workload
	outDir := filepath.Join(b.o.work, "traces")
	t, err := runTraced(pool, b.dir, captureDir, captureStreams, outDir, label)
	if err != nil {
		return nil, err
	}
	t.metrics["cluster.relayed_frames_per_stream"] = metric{relayed, "frames/stream"}
	t.metrics["gen.lateness_p99_ms"] = metric{lateness, "ms"}
	fmt.Fprint(os.Stderr, t.table)
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s/%s.trace.json\n", outDir, label)
	return t.metrics, nil
}

// steadyMix: a closed loop of long Table-2 streams into one svdd.
func (b *bench) steadyMix() (*result, error) {
	pool, err := buildPool(b.steadySpecs(), false)
	if err != nil {
		return nil, err
	}
	ds, setup, err := b.launch(b.standalone(nil), listening)
	if err != nil {
		return nil, err
	}
	defer stopAll(ds)
	out, err := closedLoop(ds[0].addr, pool, b.duration(), stat(ds))
	if err != nil {
		return nil, err
	}
	peak, err := fleetStat(ds)
	if err != nil {
		return nil, err
	}
	if err := stopAll(ds); err != nil {
		return nil, err
	}
	e2e, err := endToEnd(setup, out, peak.hwmKiB)
	if err != nil {
		return nil, err
	}
	return b.finish(out, e2e, func() (map[string]metric, error) { return b.traced(pool, "", 0, 0, 0) })
}

// clusterRelay: the steady-mix pool with routing keys, all sent to
// node a of a two-node cluster, which relays half of it to node b.
func (b *bench) clusterRelay() (*result, error) {
	specs := b.steadySpecs()
	// Keys are chosen so the first seed's streams are owned by a and the
	// second seed's by b: exactly half of every program is relayed.
	view := cluster.NewView(1, []cluster.Member{{ID: "a"}, {ID: "b"}})
	for i := range specs {
		want := "a"
		if i >= len(table2) {
			want = "b"
		}
		for k := 0; ; k++ {
			key := fmt.Sprintf("%s/%d/%d", specs[i].Name, specs[i].Seed, k)
			if m, ok := view.Owner(key); ok && m.ID == want {
				specs[i].Key = key
				break
			}
		}
	}
	pool, err := buildPool(specs, false)
	if err != nil {
		return nil, err
	}
	start := func(int) ([]*daemon, time.Time, error) {
		addrs, err := freeAddrs(4)
		if err != nil {
			return nil, time.Time{}, err
		}
		peers := fmt.Sprintf("a=%s+%s,b=%s+%s", addrs[0], addrs[1], addrs[2], addrs[3])
		t0 := time.Now()
		var ds []*daemon
		for i, id := range []string{"a", "b"} {
			d, err := startDaemon(b.o.bin, id, addrs[2*i], addrs[2*i+1],
				[]string{"-cluster", "-node-id", id, "-peers", peers, "-listen", addrs[2*i], "-http", addrs[2*i+1]})
			if err != nil {
				return ds, t0, err
			}
			ds = append(ds, d)
		}
		return ds, t0, nil
	}
	ready := func(ds []*daemon) error {
		if err := listening(ds); err != nil {
			return err
		}
		return waitOneView(ds, time.Now().Add(60*time.Second))
	}
	ds, setup, err := b.launch(start, ready)
	if err != nil {
		return nil, err
	}
	defer stopAll(ds)
	out, err := closedLoop(ds[0].addr, pool, b.duration(), stat(ds))
	if err != nil {
		return nil, err
	}
	peak, err := fleetStat(ds)
	if err != nil {
		return nil, err
	}
	cl, err := readClusterLine(ds[0].httpAddr)
	if err != nil {
		return nil, err
	}
	if cl.membersDown != 0 {
		return nil, fmt.Errorf("node a marked %d members down during the run", cl.membersDown)
	}
	if cl.forwarded == 0 {
		return nil, errors.New("node a relayed no frames")
	}
	if err := checkMergedReport(ds[0].httpAddr, pool, out); err != nil {
		out.errs = append(out.errs, err)
	}
	if err := stopAll(ds); err != nil {
		return nil, err
	}
	e2e, err := endToEnd(setup, out, peak.hwmKiB)
	if err != nil {
		return nil, err
	}
	relayed := float64(cl.forwarded) / float64(out.attempted)
	return b.finish(out, e2e, func() (map[string]metric, error) { return b.traced(pool, "", 0, relayed, 0) })
}

// checkMergedReport requires the cluster's scatter-gather /report to be
// byte-identical to a merge of the reference samples of every stream
// the cluster verified.
func checkMergedReport(httpAddr string, pool []*stream, out *served) error {
	cr, err := fetchClusterReport(httpAddr)
	if err != nil {
		return err
	}
	refs := make([]*report.Sample, 0, len(out.order))
	for _, idx := range out.order {
		refs = append(refs, pool[idx].ref)
	}
	report.SortSamples(refs)
	got, err := json.Marshal(cr.Merged)
	if err != nil {
		return err
	}
	want, err := json.Marshal(report.MergeSamples(refs))
	if err != nil {
		return err
	}
	if string(got) != string(want) {
		return fmt.Errorf("merged cluster /report differs from the merge of %d reference samples:\n got  %.300s\n want %.300s", len(refs), got, want)
	}
	return nil
}

// churnJournaled: an open loop of short streams into a journaled svdd
// whose journal already holds a capture, then svdreplay -verify.
func (b *bench) churnJournaled() (*result, error) {
	cycles := 4
	if b.o.smoke {
		cycles = 1
	}
	// The capture is fixed: its seeds do not depend on --seed.
	capPool, err := buildPool(churnSpecs(1<<32, cycles), true)
	if err != nil {
		return nil, err
	}
	pool, err := buildPool(churnSpecs(b.o.seed*64, cycles), true)
	if err != nil {
		return nil, err
	}
	capDir := filepath.Join(b.dir, "capture")
	if err := b.writeCapture(capDir, capPool); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	journalDir := func(rep int) string { return filepath.Join(b.dir, fmt.Sprintf("journal-%d", rep)) }
	extra := func(rep int) ([]string, error) {
		if rep > 0 {
			if err := os.RemoveAll(journalDir(rep - 1)); err != nil {
				return nil, err
			}
		}
		if err := copyDir(capDir, journalDir(rep)); err != nil {
			return nil, err
		}
		return []string{"-journal", journalDir(rep)}, nil
	}
	ds, setup, err := b.launch(b.standalone(extra), listening)
	if err != nil {
		return nil, err
	}
	defer stopAll(ds)
	n := int(b.o.seconds * churnStreamsPerSec)
	sched := openSchedule(n, time.Second/churnStreamsPerSec, len(pool))
	out, err := openLoop(ds[0].addr, pool, sched, churnEventRate, time.Second, stat(ds))
	if err != nil {
		return nil, err
	}
	peak, err := fleetStat(ds)
	if err != nil {
		return nil, err
	}
	if err := stopAll(ds); err != nil {
		return nil, err
	}
	reps := setupReps
	if b.o.smoke {
		reps = 3
	}
	if err := b.verifyReplay(journalDir(reps-1), len(capPool)+len(out.order)); err != nil {
		out.errs = append(out.errs, err)
	}
	e2e, err := endToEnd(setup, out, peak.hwmKiB)
	if err != nil {
		return nil, err
	}
	lateness := percentile(out.lateness, 99)
	fmt.Fprintf(os.Stderr, "perfbench: generator lateness per frame p50 %.3f ms, p99 %.3f ms\n", percentile(out.lateness, 50), lateness)
	return b.finish(out, e2e, func() (map[string]metric, error) {
		return b.traced(pool, capDir, len(capPool), 0, lateness)
	})
}

// writeCapture has the daemon under test journal capPool once, as
// untimed preparation, and checks its verdicts.
func (b *bench) writeCapture(dir string, capPool []*stream) error {
	addrs, err := freeAddrs(1)
	if err != nil {
		return err
	}
	addr := addrs[0]
	d, err := startDaemon(b.o.bin, "capture", addr, "", []string{"-listen", addr, "-journal", dir})
	if err != nil {
		return err
	}
	defer d.stop()
	if err := d.waitListening(time.Now().Add(60 * time.Second)); err != nil {
		return err
	}
	sched := openSchedule(len(capPool), 0, len(capPool))
	out, err := openLoop(addr, capPool, sched, 1e12, 0, nil)
	if err != nil {
		return err
	}
	if out.failed > 0 || len(out.errs) > 0 {
		return fmt.Errorf("%d failed, %d incorrect of %d capture streams: %v", out.failed, len(out.errs), len(capPool), out.errs)
	}
	return d.stop()
}

// verifyReplay runs svdreplay -verify over the served journal and
// requires every completed stream to match, none to diverge.
func (b *bench) verifyReplay(dir string, want int) error {
	cmd := exec.Command(filepath.Join(b.o.bin, "svdreplay"), "-journal", dir, "-verify", "-json")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	t0 := time.Now()
	raw, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("svdreplay -verify: %v\n%s", err, stderr.String())
	}
	var sum server.ReplaySummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		return fmt.Errorf("svdreplay -verify output: %w", err)
	}
	var events uint64
	for _, s := range sum.Streams {
		events += s.Events
	}
	fmt.Fprintf(os.Stderr, "perfbench: svdreplay -verify: %d streams, %d matched, %d diverged, %d events in %.3f s (%.0f events/s)\n",
		sum.Replayed, sum.Matched, sum.Diverged, events, wall.Seconds(), float64(events)/wall.Seconds())
	if sum.Diverged != 0 || sum.Errors != 0 || sum.Incomplete != 0 || sum.Matched != want {
		return fmt.Errorf("svdreplay -verify: %d matched of %d, %d diverged, %d incomplete, %d errors",
			sum.Matched, want, sum.Diverged, sum.Incomplete, sum.Errors)
	}
	return nil
}
