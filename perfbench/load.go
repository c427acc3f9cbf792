package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
)

// conns is the generator's connection count, one sending goroutine each.
const conns = 2

// served is what one load phase observed.
type served struct {
	attempted int
	failed    int
	errs      []error       // correctness failures: a verdict that differs from its reference
	events    uint64        // events of verified streams
	wall      time.Duration // start of the phase to the last Result
	verdicts  []float64     // per verified stream, ms from Goodbye due to Result
	lateness  []float64     // per frame, ms the generator sent it after its due time
	order     []int         // pool index of every verified stream
	windows   []window      // stretches the rates are taken over
}

func (s *served) merge(o *served) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
	s.events += o.events
	s.verdicts = append(s.verdicts, o.verdicts...)
	s.lateness = append(s.lateness, o.lateness...)
	s.order = append(s.order, o.order...)
}

// client is one generator connection.
type client struct {
	addr string
	conn net.Conn
	d    *wire.Deframer
}

func (c *client) dial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.d = wire.NewDeframer(conn)
	c.d.ExpectResults()
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// readResult waits for the stream's Result frame.
func (c *client) readResult() (wire.Result, error) {
	fr, err := c.d.ReadFrame()
	if err != nil {
		return wire.Result{}, err
	}
	switch fr.Type {
	case wire.FrameResult:
		return fr.Result, nil
	case wire.FrameError:
		return wire.Result{}, fmt.Errorf("daemon error frame: %s", fr.Errmsg)
	default:
		return wire.Result{}, fmt.Errorf("expected a result, got %s", fr.Type)
	}
}

// finish reads and checks one stream's verdict and books it.
func (c *client) finish(st *stream, idx int, goodbyeDue time.Time, out *served) {
	res, err := c.readResult()
	receipt := time.Now()
	if err != nil {
		out.failed++
		c.close()
		return
	}
	if err := checkResult(st, res); err != nil {
		out.errs = append(out.errs, err)
		return
	}
	out.events += st.events
	out.verdicts = append(out.verdicts, float64(receipt.Sub(goodbyeDue))/1e6)
	out.order = append(out.order, idx)
}

// closedLoop sends the pool in rounds: in round r connection c sends
// pool[c*rounds+r] as one write and waits for its verdict, and the
// next round starts once both verdicts are back. Pool entries that
// share a round are the same program under different seeds, so they
// take about as long, and the two streams of a round always land on
// different shards of a two-shard daemon. Whole cycles of the pool are
// sent until d has passed; each cycle is one window of the kernel's
// accounting. A stream's Goodbye is due as soon as its last byte is
// written.
func closedLoop(addr string, pool []*stream, d time.Duration, stat func() (procStat, error)) (*served, error) {
	rounds := len(pool) / conns
	clients := make([]*client, conns)
	for c := range clients {
		clients[c] = &client{addr: addr}
		defer clients[c].close()
	}
	total := &served{}
	start := time.Now()
	for time.Since(start) < d {
		w, err := beginWindow(stat)
		if err != nil {
			return nil, err
		}
		var cycle served
		for r := range rounds {
			outs := make([]served, conns)
			var wg sync.WaitGroup
			for c, cl := range clients {
				wg.Add(1)
				go func(c int, cl *client, out *served) {
					defer wg.Done()
					idx := c*rounds + r
					st := pool[idx]
					out.attempted++
					if cl.conn == nil {
						if err := cl.dial(); err != nil {
							out.failed++
							return
						}
					}
					if _, err := cl.conn.Write(st.wire); err != nil {
						out.failed++
						cl.close()
						return
					}
					cl.finish(st, idx, time.Now(), out)
				}(c, cl, &outs[c])
			}
			wg.Wait()
			for i := range outs {
				cycle.merge(&outs[i])
			}
		}
		if err := w.end(stat, cycle.events); err != nil {
			return nil, err
		}
		total.merge(&cycle)
		total.windows = append(total.windows, w)
	}
	total.wall = time.Since(start)
	return total, nil
}

// window is one stretch of a load phase with the daemons' CPU time
// over it.
type window struct {
	t0     time.Time
	cpu0   time.Duration
	wall   time.Duration
	cpu    time.Duration
	events uint64
}

func beginWindow(stat func() (procStat, error)) (window, error) {
	ps, err := stat()
	return window{t0: time.Now(), cpu0: ps.cpu}, err
}

func (w *window) end(stat func() (procStat, error), events uint64) error {
	ps, err := stat()
	w.wall, w.cpu, w.events = time.Since(w.t0), ps.cpu-w.cpu0, events
	return err
}

// slot is one scheduled stream of the open loop.
type slot struct {
	due  time.Duration // offset of its Hello from the start of the phase
	pool int           // pool index
	conn int           // connection that carries it
}

// openSchedule fixes the open loop's arrivals before the run: n
// streams, one every interval, dealt round-robin to the connections
// and cycling through the pool in order.
func openSchedule(n int, interval time.Duration, poolLen int) []slot {
	s := make([]slot, n)
	for k := range s {
		s[k] = slot{due: time.Duration(k) * interval, pool: k % poolLen, conn: k % conns}
	}
	return s
}

// frameDue is when a frame is due: the stream's due time plus the
// events before it at the per-stream event rate.
func frameDue(streamDue time.Time, before uint64, rate float64) time.Time {
	return streamDue.Add(time.Duration(float64(before) / rate * float64(time.Second)))
}

// openLoop sends the scheduled streams, pacing each stream's frames at
// rate events per second. Every frame counts its lateness against its
// due time, and every verdict its latency from the Goodbye's due time,
// so a stall is charged to every stream it delays. Send stamps are
// written into each frame as it leaves. With stat set, the daemons'
// CPU time is sampled every win of the schedule, and each window is
// charged the events of the streams due in it.
func openLoop(addr string, pool []*stream, sched []slot, rate float64, win time.Duration, stat func() (procStat, error)) (*served, error) {
	outs := make([]served, conns)
	start := time.Now()
	var wg sync.WaitGroup
	var windows []window
	var statErr error
	if stat != nil && len(sched) > 0 {
		n := max(1, int(math.Ceil(float64(sched[len(sched)-1].due)/float64(win))))
		windows = make([]window, n)
		for _, sl := range sched {
			if k := int(sl.due / win); k < n {
				windows[k].events += pool[sl.pool].events
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k <= n; k++ {
				time.Sleep(time.Until(start.Add(time.Duration(k) * win)))
				ps, err := stat()
				if err != nil {
					statErr = err
					return
				}
				if k < n {
					windows[k].t0, windows[k].cpu0 = time.Now(), ps.cpu
				}
				if k > 0 {
					w := &windows[k-1]
					w.wall, w.cpu = time.Since(w.t0), ps.cpu-w.cpu0
				}
			}
		}()
	}
	for ci := range outs {
		wg.Add(1)
		go func(ci int, out *served) {
			defer wg.Done()
			c := &client{addr: addr}
			defer c.close()
			for _, sl := range sched {
				if sl.conn != ci {
					continue
				}
				st := pool[sl.pool]
				out.attempted++
				if c.conn == nil {
					if err := c.dial(); err != nil {
						out.failed++
						continue
					}
				}
				due := start.Add(sl.due)
				if err := sendPaced(c.conn, st, due, rate, out); err != nil {
					out.failed++
					c.close()
					continue
				}
				c.finish(st, sl.pool, frameDue(due, st.events, rate), out)
			}
		}(ci, &outs[ci])
	}
	wg.Wait()
	total := &served{wall: time.Since(start), windows: windows}
	for i := range outs {
		total.merge(&outs[i])
	}
	return total, statErr
}

// sendPaced writes st frame by frame, each no earlier than its due
// time. Frames already due go out together in one write.
func sendPaced(conn net.Conn, st *stream, due time.Time, rate float64, out *served) error {
	for j := 0; j < len(st.frames); {
		if wait := time.Until(frameDue(due, st.frames[j].before, rate)); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		k := j
		for ; k < len(st.frames); k++ {
			fd := frameDue(due, st.frames[k].before, rate)
			if fd.After(now) {
				break
			}
			if s := st.frames[k].stamp; s >= 0 {
				binary.PutUvarint(st.wire[s:s+stampLen], uint64(now.UnixNano()))
			}
			out.lateness = append(out.lateness, float64(now.Sub(fd))/1e6)
		}
		if k == j {
			continue // woke early; sleep again
		}
		if _, err := conn.Write(st.wire[st.frames[j].off:st.frames[k-1].end]); err != nil {
			return err
		}
		j = k
	}
	return nil
}

// percentile is the nearest-rank percentile of xs (0 < p <= 100): the
// smallest value with at least p% of the sample at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

var errNoStreams = errors.New("no stream was verified")
