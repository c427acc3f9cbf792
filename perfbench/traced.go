package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/frd"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/svd"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// The traced run replays a workload's distinct streams in-process
// through each layer's public calls, in the order a daemon session
// makes them, and times every call from here: the program itself
// carries no spans.
//
// Each stream is replayed twice. The session pass is what svdd does
// with a connection: decode each frame, append it to the journal and
// to the handoff history, and hand the batch to a real server.Engine
// (open, ingest, close), then encode the Result. The detector pass
// decodes the same bytes again and steps a private svd and frd
// detector on every batch, then classifies them, so the step and
// classify costs are timed on the caller's goroutine instead of inside
// the engine's shard workers. Both passes must agree with the
// reference verdict.

// span is one timed call. Spans of one stream share its stream id;
// parent is the index of the enclosing span, -1 at the top.
type span struct {
	name          string
	parent        int32
	stream        int32
	start, end    int64 // ns since the tracer started
	events, bytes int64 // work the call did
}

// tracer keeps spans in memory. A nil tracer records nothing and reads
// no clock, which is how the untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, stream int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, stream: stream, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32, events, bytes int64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.t0))
	s.events, s.bytes = events, bytes
}

// layerRun is the state one traced run shares across streams.
type layerRun struct {
	eng  *server.Engine
	sink *obs.Sink

	// Counts taken at the layer boundaries of the traced pass.
	streams     int
	events      int64
	histBytes   int64 // History.Len at close, summed
	histSticky  int   // streams whose history outgrew its cap
	svdStats    svd.Stats
	resultBytes int64
}

// appendJournal appends one record as the session does and times it.
func appendJournal(t *tracer, root, sid int32, jw *journal.Writer, m journal.Meta, hdr, payload []byte) (journal.Loc, error) {
	sp := t.begin("journal.append", root, sid)
	loc, err := jw.Append(m, hdr, payload)
	t.end(sp, 0, int64(len(hdr)+len(payload)))
	return loc, err
}

// replayStream runs both passes of one stream. counted selects whether
// its layer counts are kept (the traced pass) or not (the untraced one).
func (r *layerRun) replayStream(t *tracer, sid int32, st *stream, jw *journal.Writer, counted bool) error {
	root := t.begin("stream", -1, sid)
	sample, w, err := r.sessionPass(t, root, sid, st, jw, counted)
	if err != nil {
		return err
	}
	if !bytes.Equal(sample, st.want) {
		return fmt.Errorf("traced %v: engine sample differs from the reference verdict", st.spec)
	}
	if err := r.detectorPass(t, root, sid, st, w, sample, counted); err != nil {
		return err
	}
	t.end(root, int64(st.events), int64(len(st.wire)))
	return nil
}

// sessionPass is the daemon session's work on one stream.
func (r *layerRun) sessionPass(t *tracer, root, sid int32, st *stream, jw *journal.Writer, counted bool) ([]byte, *workloads.Workload, error) {
	d := wire.NewDeframer(bytes.NewReader(st.wire))
	sp := t.begin("wire.decode", root, sid)
	fr, err := d.ReadFrame()
	t.end(sp, 0, int64(d.LastFrameBytes()))
	if err != nil || fr.Type != wire.FrameHello {
		return nil, nil, fmt.Errorf("traced %v: hello: %v", st.spec, err)
	}
	h := fr.Hello
	sp = t.begin("workloads.resolve", root, sid)
	w, err := workloads.ByName(h.Workload, h.Scale, h.Seed)
	t.end(sp, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	sp = t.begin("server.open", root, sid)
	s, err := r.eng.OpenStream(h, h.Key)
	t.end(sp, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	d.SetProgram(w.Prog, w.NumThreads)
	hist := cluster.NewHistory(server.DefaultHistoryLimit)
	hdr, payload := d.RawFrame()
	if _, err := appendJournal(t, root, sid, jw, journal.Meta{Kind: journal.KindHello, Stream: s.ID()}, hdr, payload); err != nil {
		s.Abort()
		return nil, nil, err
	}
	sp = t.begin("cluster.history_append", root, sid)
	hist.Append(hdr, payload)
	t.end(sp, 0, int64(len(hdr)+len(payload)))
	for {
		eb := s.GetBatch()
		sp = t.begin("wire.decode", root, sid)
		fr, err := d.ReadFrameInto(eb)
		t.end(sp, int64(eb.Len()), int64(d.LastFrameBytes()))
		if err != nil {
			s.PutBatch(eb)
			s.Abort()
			return nil, nil, fmt.Errorf("traced %v: decode: %w", st.spec, err)
		}
		if fr.Type == wire.FrameGoodbye {
			s.PutBatch(eb)
			break
		}
		n := eb.Len()
		if fr.Type != wire.FrameEvents || n == 0 {
			s.PutBatch(eb)
			s.Abort()
			return nil, nil, fmt.Errorf("traced %v: unexpected %s frame", st.spec, fr.Type)
		}
		hdr, payload := d.RawFrame()
		loc, err := appendJournal(t, root, sid, jw, journal.Meta{
			Kind: journal.KindEvents, Stream: s.ID(), FirstSeq: eb.Seq[0], LastSeq: eb.Seq[n-1],
		}, hdr, payload)
		if err != nil {
			s.PutBatch(eb)
			s.Abort()
			return nil, nil, err
		}
		sp = t.begin("cluster.history_append", root, sid)
		hist.Append(hdr, payload)
		t.end(sp, 0, int64(len(hdr)+len(payload)))
		sp = t.begin("server.ingest_wait", root, sid)
		s.IngestBatchJournaled(eb, fr.SendNanos, loc)
		t.end(sp, int64(n), 0)
	}
	hdr, payload = d.RawFrame()
	if _, err := appendJournal(t, root, sid, jw, journal.Meta{Kind: journal.KindGoodbye, Stream: s.ID()}, hdr, payload); err != nil {
		s.Abort()
		return nil, nil, err
	}
	sp = t.begin("server.close", root, sid)
	sample, err := s.Close()
	t.end(sp, 0, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("traced %v: close: %w", st.spec, err)
	}
	sp = t.begin("report.result_encode", root, sid)
	data, err := json.Marshal(sample)
	var res bytes.Buffer
	if err == nil {
		err = wire.NewFramer(&res, 1).WriteResult(wire.Result{Sample: data})
	}
	t.end(sp, 0, int64(res.Len()-9))
	if err != nil {
		return nil, nil, err
	}
	if _, err := appendJournal(t, root, sid, jw, journal.Meta{Kind: journal.KindResult, Stream: s.ID()}, nil, data); err != nil {
		return nil, nil, err
	}
	if counted {
		r.streams++
		r.events += int64(st.events)
		r.histBytes += int64(hist.Len())
		if hist.Sticky() {
			r.histSticky++
		}
		r.resultBytes += int64(res.Len() - 9)
	}
	return data, w, nil
}

// detectorPass steps private detectors over the same frames and
// classifies them as the engine's close job does.
func (r *layerRun) detectorPass(t *tracer, root, sid int32, st *stream, w *workloads.Workload, served []byte, counted bool) error {
	d := wire.NewDeframer(bytes.NewReader(st.wire))
	sp := t.begin("wire.decode", root, sid)
	fr, err := d.ReadFrame()
	t.end(sp, 0, int64(d.LastFrameBytes()))
	if err != nil || fr.Type != wire.FrameHello {
		return fmt.Errorf("traced %v: hello: %v", st.spec, err)
	}
	d.SetProgram(w.Prog, w.NumThreads)
	rec := r.sink.NewRecorder(fmt.Sprintf("%s seed %d traced", w.Name, st.spec.Seed))
	var engineDefaults server.Options
	sd := svd.New(w.Prog, w.NumThreads, svd.Options{Recorder: rec})
	fd := frd.New(w.Prog, w.NumThreads, frd.Options{Recorder: rec})
	eb := vm.NewEventBatch(vm.DefaultBatchCap)
	eb.EnableBlocks(engineDefaults.SVD.BlockShift)
	for {
		sp = t.begin("wire.decode", root, sid)
		fr, err := d.ReadFrameInto(eb)
		n := int64(eb.Len())
		t.end(sp, n, int64(d.LastFrameBytes()))
		if err != nil {
			return fmt.Errorf("traced %v: decode: %w", st.spec, err)
		}
		if fr.Type == wire.FrameGoodbye {
			break
		}
		sp = t.begin("svd.step", root, sid)
		sd.StepColumns(eb)
		t.end(sp, n, 0)
		sp = t.begin("frd.step", root, sid)
		fd.StepColumns(eb)
		t.end(sp, n, 0)
	}
	sd.FlushObs()
	fd.FlushObs()
	sp = t.begin("report.classify", root, sid)
	sample := report.Classify(w, st.spec.Seed, sd, fd)
	t.end(sp, 0, 0)
	rec.Flush()
	got, err := json.Marshal(sample)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, served) {
		return fmt.Errorf("traced %v: private detectors disagree with the engine", st.spec)
	}
	if counted {
		r.svdStats.Add(sd.Stats())
	}
	return nil
}

// tracedOutcome is what the traced run reports besides its spans.
type tracedOutcome struct {
	metrics map[string]metric
	table   string
}

// runTraced replays pool through the layers, once untraced and once
// traced per stream (alternating which goes first), then recovers and
// replays the traced journal. captureDir, when set, seeds the traced
// journal with that capture. The Chrome trace and the layer table are
// written next to each other under outDir.
func runTraced(pool []*stream, dir, captureDir string, captureStreams int, outDir, label string) (*tracedOutcome, error) {
	tracedDir, untracedDir := dir+"/traced-journal", dir+"/untraced-journal"
	if captureDir != "" {
		if err := copyDir(captureDir, tracedDir); err != nil {
			return nil, err
		}
	}
	openJournal := func(path string) (*journal.Writer, error) {
		prov, err := journal.OpenDir(path)
		if err != nil {
			return nil, err
		}
		return journal.OpenWriter(prov, journal.Options{})
	}
	jwT, err := openJournal(tracedDir)
	if err != nil {
		return nil, err
	}
	jwU, err := openJournal(untracedDir)
	if err != nil {
		jwT.Close()
		return nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	sink := obs.NewSink(obs.SinkOptions{})
	// The options svdd runs with by default; stream ids continue after
	// the capture's, as they do when svdd reopens a journal.
	eng := server.New(server.Options{
		Shards: runtime.GOMAXPROCS(0), QueueDepth: 64, Scale: 1, Obs: sink, Telemetry: true,
		StreamBase: jwT.StreamBase(), Logger: quiet,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	}()
	r := &layerRun{eng: eng, sink: sink}
	tr := &tracer{t0: time.Now()}
	var wallT, wallU time.Duration
	runOne := func(i int, traced bool) error {
		t0 := time.Now()
		var err error
		if traced {
			err = r.replayStream(tr, int32(i), pool[i], jwT, true)
			wallT += time.Since(t0)
		} else {
			err = r.replayStream(nil, int32(i), pool[i], jwU, false)
			wallU += time.Since(t0)
		}
		return err
	}
	for i := range pool {
		first := i%2 == 0
		if err = runOne(i, first); err == nil {
			err = runOne(i, !first)
		}
		if err != nil {
			jwT.Close()
			jwU.Close()
			return nil, err
		}
	}
	appended := jwT.Stats().AppendedBytes
	if err := jwT.Close(); err != nil {
		jwU.Close()
		return nil, err
	}
	if err := jwU.Close(); err != nil {
		return nil, err
	}

	sp := tr.begin("journal.recover", -1, -1)
	jw, err := openJournal(tracedDir)
	tr.end(sp, 0, 0)
	if err != nil {
		return nil, err
	}
	if err := jw.Close(); err != nil {
		return nil, err
	}
	replayed, err := replayTraced(tr, tracedDir, quiet, len(pool)+captureStreams)
	if err != nil {
		return nil, err
	}

	agg := aggregate(tr.spans)
	var poolEvents, poolEventBytes int64
	for _, st := range pool {
		poolEvents += int64(st.events)
		poolEventBytes += int64(st.eventBytes)
	}
	usPerStream := func(name string) float64 { return float64(agg[name].dur) / 1e3 / float64(r.streams) }
	perEvent := func(name string) float64 { return float64(agg[name].dur) / float64(agg[name].events) }
	perCall := func(name string) float64 { return float64(agg[name].dur) / float64(agg[name].count) }
	ss := r.svdStats
	m := map[string]metric{
		"wire.decode_ns_per_event":            {perEvent("wire.decode"), "ns/event"},
		"wire.bytes_per_event":                {float64(poolEventBytes) / float64(poolEvents), "bytes/event"},
		"workloads.resolve_us_per_stream":     {usPerStream("workloads.resolve"), "us/stream"},
		"server.open_us_per_stream":           {usPerStream("server.open"), "us/stream"},
		"server.ingest_wait_ns_per_batch":     {perCall("server.ingest_wait"), "ns/batch"},
		"server.close_us_per_stream":          {usPerStream("server.close"), "us/stream"},
		"svd.step_ns_per_event":               {perEvent("svd.step"), "ns/event"},
		"svd.remote_skip_ratio":               {ratio(ss.RemoteSkipped, ss.RemoteSent+ss.RemoteSkipped), "ratio"},
		"svd.cu_reuse_ratio":                  {ratio(ss.CUsReused, ss.CUsReused+ss.CUsAllocated), "ratio"},
		"frd.step_ns_per_event":               {perEvent("frd.step"), "ns/event"},
		"report.classify_us_per_stream":       {usPerStream("report.classify"), "us/stream"},
		"report.result_encode_us_per_stream":  {usPerStream("report.result_encode"), "us/stream"},
		"report.result_bytes_per_stream":      {float64(r.resultBytes) / float64(r.streams), "bytes/stream"},
		"journal.append_ns_per_record":        {perCall("journal.append"), "ns/record"},
		"journal.bytes_per_event":             {float64(appended) / float64(r.events), "bytes/event"},
		"journal.recover_ms":                  {float64(agg["journal.recover"].dur) / 1e6, "ms"},
		"journal.replay_ns_per_event":         {float64(agg["journal.replay"].dur) / float64(replayed), "ns/event"},
		"cluster.history_append_ns_per_frame": {perCall("cluster.history_append"), "ns/frame"},
		"cluster.history_mib_per_stream":      {float64(r.histBytes) / (1 << 20) / float64(r.streams), "MiB/stream"},
		"trace.unattributed_share":            {float64(agg["stream"].self) / float64(agg.topLevel()), "ratio"},
		"trace.overhead_share":                {float64(wallT-wallU) / float64(wallU), "ratio"},
	}
	table := layerTable(agg, r, ss, replayed, wallT, wallU)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeChrome(outDir+"/"+label+".trace.json", label, tr.spans); err != nil {
		return nil, err
	}
	if err := os.WriteFile(outDir+"/"+label+".layers.txt", []byte(table), 0o644); err != nil {
		return nil, err
	}
	return &tracedOutcome{metrics: m, table: table}, nil
}

// replayTraced re-detects the traced journal with Engine.ReplayJournal
// on an engine configured as svdreplay configures its own, and checks
// that every stream matches its journaled verdict. It returns the
// events replayed.
func replayTraced(tr *tracer, dir string, log *slog.Logger, want int) (int64, error) {
	prov, err := journal.OpenDir(dir)
	if err != nil {
		return 0, err
	}
	rd, err := journal.OpenReader(prov)
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	reng := server.New(server.Options{Shards: 1, Scale: 1, Logger: log})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = reng.Shutdown(ctx)
	}()
	sp := tr.begin("journal.replay", -1, -1)
	sum, err := reng.ReplayJournal(rd)
	var events int64
	if sum != nil {
		for _, s := range sum.Streams {
			events += int64(s.Events)
		}
	}
	tr.end(sp, events, 0)
	if err != nil {
		return 0, err
	}
	if !sum.Ok() || sum.Matched != want || sum.Incomplete != 0 {
		return 0, fmt.Errorf("traced journal replay: %d matched of %d, %d diverged, %d incomplete, %d errors",
			sum.Matched, want, sum.Diverged, sum.Incomplete, sum.Errors)
	}
	return events, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	count, dur, self, events, bytes int64
	top                             bool
}

type aggregates map[string]*spanAgg

// topLevel is the traced time: every span without a parent.
func (a aggregates) topLevel() int64 {
	var t int64
	for _, s := range a {
		if s.top {
			t += s.dur
		}
	}
	return t
}

// aggregate folds spans by name. A span's self time is its duration
// minus its children's; children of one span never overlap here,
// because every call is made from one goroutine.
func aggregate(spans []span) aggregates {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	a := aggregates{}
	for i, s := range spans {
		g := a[s.name]
		if g == nil {
			g = &spanAgg{top: s.parent < 0}
			a[s.name] = g
		}
		d := s.end - s.start
		g.count++
		g.dur += d
		g.self += d - child[i]
		g.events += s.events
		g.bytes += s.bytes
	}
	for _, name := range []string{"wire.decode", "workloads.resolve", "server.open", "server.ingest_wait",
		"server.close", "svd.step", "frd.step", "report.classify", "report.result_encode",
		"journal.append", "journal.recover", "journal.replay", "cluster.history_append", "stream"} {
		if a[name] == nil {
			a[name] = &spanAgg{}
		}
	}
	return a
}

// layerTable renders the per-layer breakdown of the traced pass.
func layerTable(a aggregates, r *layerRun, ss svd.Stats, replayed int64, wallT, wallU time.Duration) string {
	total := float64(a.topLevel())
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "LAYER\tCALL\tSPANS\tSELF ms\tSHARE\tEVENTS\tBYTES")
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := a[name]
		layer, call, ok := strings.Cut(name, ".")
		if !ok {
			layer, call = "(bench)", name+" self time, no layer"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%.4f\t%d\t%d\n", layer, call, g.count, float64(g.self)/1e6, float64(g.self)/total, g.events, g.bytes)
	}
	tw.Flush()
	fmt.Fprintf(&b, "traced time %.3f ms over %d streams and %d events; share = self time / traced time\n", total/1e6, r.streams, r.events)
	fmt.Fprintf(&b, "svd.remote_skip_ratio = %d skipped / %d remote notifications owed (sent+skipped)\n", ss.RemoteSkipped, ss.RemoteSent+ss.RemoteSkipped)
	fmt.Fprintf(&b, "svd.cu_reuse_ratio = %d reused / %d CUs built (reused+allocated)\n", ss.CUsReused, ss.CUsReused+ss.CUsAllocated)
	fmt.Fprintf(&b, "cluster.history: %d of %d streams outgrew the %d-byte cap and hold no history at close\n", r.histSticky, r.streams, server.DefaultHistoryLimit)
	fmt.Fprintf(&b, "journal.replay re-detected %d events\n", replayed)
	fmt.Fprintf(&b, "trace.overhead_share = (%.3f ms traced - %.3f ms untraced) / %.3f ms untraced\n",
		wallT.Seconds()*1e3, wallU.Seconds()*1e3, wallU.Seconds()*1e3)
	return b.String()
}

// writeChrome writes spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing load. Spans are complete ("X") events on one
// track; their args carry the span id, its parent and its stream.
func writeChrome(path, label string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":%q}}", "perfbench traced run "+label)
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.name, ".")
		fmt.Fprintf(bw, ",\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"stream\":%d,\"events\":%d,\"bytes\":%d}}",
			s.name, layer, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.stream, s.events, s.bytes)
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
