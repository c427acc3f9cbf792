package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// maxSteps is the VM instruction budget of every recorded stream and
// every reference run: report.Run's default, so both see the same
// execution.
const maxSteps = 1 << 24

// stampLen is the width of a wire send stamp: a uvarint of a current
// UnixNano value always takes nine bytes, so a stamp recorded before the
// run can be overwritten in place with the real send time.
const stampLen = 9

// lockDisciplined names the programs whose shared state is always
// accessed under a lock: on them FRD must report no race and the
// workload's consistency check must never fail.
var lockDisciplined = map[string]bool{
	"apache-fixed":         true,
	"pgsql-oltp":           true,
	"queue-fixed":          true,
	"mysql-prepared-fixed": true,
}

// streamSpec names one stream: a registry workload at a scale, run
// under one scheduler seed, with an optional cluster routing key.
type streamSpec struct {
	Name  string
	Scale int
	Seed  uint64
	Key   string
}

func (s streamSpec) String() string {
	return fmt.Sprintf("%s/scale=%d/seed=%d", s.Name, s.Scale, s.Seed)
}

// frameRef locates one frame inside a pre-encoded stream.
type frameRef struct {
	off, end int    // byte range in stream.wire
	before   uint64 // events of the stream in earlier frames
	stamp    int    // offset of the send stamp; -1 when the stream has none
}

// stream is one pre-encoded wire stream (Hello, Events..., Goodbye)
// together with its reference verdict.
type stream struct {
	spec       streamSpec
	wire       []byte
	frames     []frameRef
	events     uint64
	eventBytes uint64 // Events frames only: what Framer.WriteColumns wrote
	ref        *report.Sample

	// want is the Sample JSON the daemon must return: the reference
	// with the consistency fields cleared, because those are filled in
	// by the producer from its own VM and never by the detector.
	want []byte
}

// encodeStream runs spec's program once on the VM and records every
// event batch as the wire bytes a producer would send.
func encodeStream(spec streamSpec, timestamps bool) (*stream, error) {
	w, err := workloads.ByName(spec.Name, spec.Scale, spec.Seed)
	if err != nil {
		return nil, err
	}
	m, err := w.NewVM(spec.Seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	f := wire.NewFramer(&buf, w.NumThreads)
	st := &stream{spec: spec}
	hello := wire.Hello{
		Version:    wire.Version,
		Threads:    w.NumThreads,
		Workload:   w.Name,
		Scale:      spec.Scale,
		Seed:       spec.Seed,
		Timestamps: timestamps,
		Key:        spec.Key,
	}
	if err := f.WriteHello(hello); err != nil {
		return nil, err
	}
	st.frames = append(st.frames, frameRef{off: 0, end: buf.Len(), stamp: -1})
	var sendErr error
	m.AttachColumns(vm.ColumnFunc(func(eb *vm.EventBatch) {
		if sendErr != nil {
			return
		}
		off := buf.Len()
		sendErr = f.WriteColumns(eb)
		fr := frameRef{off: off, end: buf.Len(), before: st.events, stamp: -1}
		if timestamps {
			fr.stamp = off + 9
		}
		st.frames = append(st.frames, fr)
		st.events += uint64(eb.Len())
		st.eventBytes += uint64(buf.Len() - off)
	}))
	if _, err := m.Run(maxSteps); err != nil {
		return nil, fmt.Errorf("%v: %w", spec, err)
	}
	if sendErr != nil {
		return nil, fmt.Errorf("%v: encode: %w", spec, sendErr)
	}
	if !m.Done() {
		return nil, fmt.Errorf("%v: did not finish within %d steps", spec, maxSteps)
	}
	off := buf.Len()
	if err := f.WriteGoodbye(); err != nil {
		return nil, err
	}
	st.frames = append(st.frames, frameRef{off: off, end: buf.Len(), before: st.events, stamp: -1})
	st.wire = buf.Bytes()
	for _, fr := range st.frames {
		if fr.stamp < 0 {
			continue
		}
		if _, n := binary.Uvarint(st.wire[fr.stamp:fr.end]); n != stampLen {
			return nil, fmt.Errorf("%v: send stamp takes %d bytes, want %d", spec, n, stampLen)
		}
	}
	return st, nil
}

// attachReference computes st's verdict in-process with report.Run, on
// a workload built afresh, and checks the properties every verdict
// must have before any stream is served.
func attachReference(st *stream) error {
	w, err := workloads.ByName(st.spec.Name, st.spec.Scale, st.spec.Seed)
	if err != nil {
		return err
	}
	ref, err := report.Run(w, st.spec.Seed, report.Options{MaxSteps: maxSteps})
	if err != nil {
		return err
	}
	if ref.Instructions != st.events {
		return fmt.Errorf("%v: reference counts %d instructions, the recorded stream holds %d events",
			st.spec, ref.Instructions, st.events)
	}
	if lockDisciplined[st.spec.Name] {
		if ref.FRDStats.Races != 0 {
			return fmt.Errorf("%v: FRD reports %d races on a lock-disciplined program", st.spec, ref.FRDStats.Races)
		}
		if ref.Erroneous {
			return fmt.Errorf("%v: consistency check failed on a lock-disciplined program: %s", st.spec, ref.ErrorDetail)
		}
	}
	served := *ref
	served.Erroneous, served.ErrorDetail = false, ""
	want, err := json.Marshal(&served)
	if err != nil {
		return err
	}
	st.ref, st.want = ref, want
	return nil
}

// buildPool records and references every spec on two workers. The
// pool keeps spec order.
func buildPool(specs []streamSpec, timestamps bool) ([]*stream, error) {
	pool := make([]*stream, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				st, err := encodeStream(specs[i], timestamps)
				if err == nil {
					err = attachReference(st)
				}
				pool[i], errs[i] = st, err
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// checkResult compares one served Result against the stream's
// reference verdict.
func checkResult(st *stream, res wire.Result) error {
	if res.Err != "" {
		return fmt.Errorf("%v: daemon answered with an error: %s", st.spec, res.Err)
	}
	if bytes.Equal(res.Sample, st.want) {
		return nil
	}
	var got report.Sample
	if err := json.Unmarshal(res.Sample, &got); err != nil {
		return fmt.Errorf("%v: undecodable sample: %w", st.spec, err)
	}
	if got.Instructions != st.events {
		return fmt.Errorf("%v: sample counts %d instructions, %d events were sent", st.spec, got.Instructions, st.events)
	}
	return fmt.Errorf("%v: served sample differs from the reference verdict:\n got  %.300s\n want %.300s", st.spec, res.Sample, st.want)
}
