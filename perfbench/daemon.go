package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/server"
)

// daemon is one running svdd process.
type daemon struct {
	name     string
	addr     string // wire listener
	httpAddr string // HTTP plane, empty when off
	cmd      *exec.Cmd
	log      *tailBuffer
	done     chan struct{}
	waitErr  error
}

// listeningMsg is the log line svdd writes once its wire listener is
// bound.
const listeningMsg = `msg="svdd listening"`

// tailBuffer keeps the last lines a daemon logged, for error messages,
// and closes listening at the first line that says the listener is
// bound.
type tailBuffer struct {
	mu        sync.Mutex
	lines     []string
	part      []byte
	listening chan struct{}
	bound     bool
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.part = append(t.part, p...)
	for {
		i := bytes.IndexByte(t.part, '\n')
		if i < 0 {
			break
		}
		line := string(t.part[:i])
		if !t.bound && strings.Contains(line, listeningMsg) {
			t.bound = true
			close(t.listening)
		}
		t.lines = append(t.lines, line)
		if len(t.lines) > 20 {
			t.lines = t.lines[len(t.lines)-20:]
		}
		t.part = t.part[i+1:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// Daemon ports are taken from below Linux's default ephemeral range
// (32768-60999). A port the kernel hands out for "127.0.0.1:0" is
// released before the daemon binds it, and in that gap an outgoing
// connection (the generator's, or a cluster node's dial to its peer)
// or the next such reservation may take the same number; the daemon
// then fails with "address already in use". Ports in this range are
// never handed out that way.
const portLo, portHi = 20000, 32768

// freeAddrs picks n distinct free loopback addresses. Every candidate
// is held open until all n are found, so no two are the same port.
func freeAddrs(n int) ([]string, error) {
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			ln.Close()
		}
	}()
	port := portLo + rand.IntN(portHi-portLo)
	for tries := 0; len(held) < n; tries++ {
		if tries == portHi-portLo {
			return nil, fmt.Errorf("no %d free loopback ports in [%d, %d)", n, portLo, portHi)
		}
		port++
		if port == portHi {
			port = portLo
		}
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err == nil {
			held = append(held, ln)
		}
	}
	addrs := make([]string, n)
	for i, ln := range held {
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startDaemon launches svdd with args.
func startDaemon(bin, name, addr, httpAddr string, args []string) (*daemon, error) {
	d := &daemon{name: name, addr: addr, httpAddr: httpAddr, log: &tailBuffer{listening: make(chan struct{})}, done: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(bin, "svdd"), args...)
	// A daemon must not outlive the benchmark, even one that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start svdd %s: %w", name, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// waitListening returns once the wire listener accepts a connection.
// It waits for the daemon's own "listening" log line rather than
// polling: a polling sleep rounds up to the runtime timer's millisecond
// and a spinning poll takes a core from the daemon starting up.
func (d *daemon) waitListening(deadline time.Time) error {
	select {
	case <-d.log.listening:
	case <-d.done:
		return fmt.Errorf("svdd %s exited during start-up (%v):\n%s", d.name, d.waitErr, d.log)
	case <-time.After(time.Until(deadline)):
		return fmt.Errorf("svdd %s logged no %s:\n%s", d.name, listeningMsg, d.log)
	}
	conn, err := net.DialTimeout("tcp", d.addr, time.Second)
	if err != nil {
		return fmt.Errorf("svdd %s logged %s but refused a connection: %w", d.name, listeningMsg, err)
	}
	return conn.Close()
}

// stop drains the daemon with SIGTERM, as a service manager would, and
// waits for it to exit; a daemon that does not exit in time is killed.
// SIGTERM rather than SIGINT: a shell starts background jobs with
// SIGINT ignored, and the daemon inherits that until it installs its
// own handler.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return d.exitErr()
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.exitErr()
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("svdd %s did not drain within 20s of SIGTERM:\n%s", d.name, d.log)
	}
}

// kill ends a daemon that served nothing, such as one started only to
// time its set-up: there is nothing to drain, and it may not have
// installed its signal handler yet.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

func (d *daemon) exitErr() error {
	if d.waitErr != nil {
		return fmt.Errorf("svdd %s: %v:\n%s", d.name, d.waitErr, d.log)
	}
	return nil
}

// procStat is the kernel's accounting of one process.
type procStat struct {
	cpu    time.Duration // user + system, all threads
	hwmKiB uint64        // peak resident set
}

// readProc reads the process's CPU clock and its VmHWM. The CPU clock
// counts nanoseconds; /proc/<pid>/stat counts 10 ms ticks, too coarse
// for a window of a fraction of a second.
func readProc(pid int) (procStat, error) {
	var ps procStat
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) from the kernel's
	// posix-cpu-timers: the whole process's scheduled CPU time.
	clk := int32(^pid<<3 | 2)
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clk), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return ps, fmt.Errorf("process cpu clock: %w", e)
	}
	ps.cpu = time.Duration(ts.Nano())
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB"))
			ps.hwmKiB, err = strconv.ParseUint(kb, 10, 64)
			return ps, err
		}
	}
	return ps, errors.New("no VmHWM in /proc status")
}

// fleetStat sums procStat over every daemon of a fleet.
func fleetStat(ds []*daemon) (procStat, error) {
	var sum procStat
	for _, d := range ds {
		ps, err := readProc(d.cmd.Process.Pid)
		if err != nil {
			select {
			case <-d.done:
				return sum, fmt.Errorf("svdd %s exited (%v):\n%s", d.name, d.waitErr, d.log)
			case <-time.After(time.Second):
			}
			return sum, fmt.Errorf("svdd %s: %w:\n%s", d.name, err, d.log)
		}
		sum.cpu += ps.cpu
		sum.hwmKiB += ps.hwmKiB
	}
	return sum, nil
}

func killAll(ds []*daemon) {
	for _, d := range ds {
		d.kill()
	}
}

func stopAll(ds []*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// httpGet fetches one page of a daemon's HTTP plane.
func httpGet(addr, path string) ([]byte, error) {
	c := http.Client{Timeout: 30 * time.Second}
	resp, err := c.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return body, nil
}

// clusterLine is the cluster panel of a node's /statusz text page.
type clusterLine struct {
	epoch, ringVersion, forwarded, membersDown uint64
}

func readClusterLine(httpAddr string) (clusterLine, error) {
	var cl clusterLine
	body, err := httpGet(httpAddr, "/statusz?format=text")
	if err != nil {
		return cl, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "cluster ") {
			continue
		}
		for _, kv := range strings.Fields(line)[1:] {
			k, v, _ := strings.Cut(kv, "=")
			n, _ := strconv.ParseUint(v, 10, 64)
			switch k {
			case "epoch":
				cl.epoch = n
			case "ring_version":
				cl.ringVersion = n
			case "forwarded_frames":
				cl.forwarded = n
			case "members_down":
				cl.membersDown = n
			}
		}
		return cl, nil
	}
	return cl, fmt.Errorf("no cluster line in %s /statusz", httpAddr)
}

// waitOneView returns once every node reports the same view.
func waitOneView(ds []*daemon, deadline time.Time) error {
	for {
		var first clusterLine
		same := true
		var err error
		for i, d := range ds {
			var cl clusterLine
			if cl, err = readClusterLine(d.httpAddr); err != nil {
				same = false
				break
			}
			if i == 0 {
				first = cl
			} else if cl.epoch != first.epoch || cl.ringVersion != first.ringVersion {
				same = false
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster nodes hold no common view (last error %v)", err)
		}
	}
}

// fetchClusterReport reads the scatter-gather /report of one node.
func fetchClusterReport(httpAddr string) (*server.ClusterReport, error) {
	body, err := httpGet(httpAddr, "/report")
	if err != nil {
		return nil, err
	}
	var cr server.ClusterReport
	if err := json.Unmarshal(body, &cr); err != nil {
		return nil, fmt.Errorf("decode cluster report: %w", err)
	}
	return &cr, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
