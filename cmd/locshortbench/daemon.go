package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"locshort/internal/obs"
	"locshort/internal/service"
)

// buildDaemon compiles cmd/locshortd from the repository at root into
// out. The go command's build cache makes repeat builds of unchanged
// sources cheap.
func buildDaemon(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/locshortd")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build locshortd: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return nil
}

// daemon is one running locshortd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string // host:port
	base string // http://host:port
	dir  string // -data directory
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// deployment is the set of daemons a workload runs against.
type deployment struct {
	nodes []*daemon
	peers []string     // cluster membership (nil for one node)
	hc    *http.Client // set-up and scrapes
	ctl   *caller      // control-plane /v1/shortcuts requests
}

// controlClient carries set-up, probes and scrapes; callers have their own.
func controlClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
}

// freePorts reserves n loopback ports for a cluster, whose members must
// know each other's addresses before any of them binds.
func freePorts(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// launch starts one daemon per data directory, all at once, and returns
// when every node answers /readyz. A three-directory launch forms a static
// cluster ring at default cluster flags.
func launch(ctx context.Context, bin string, dirs []string, logDir string) (*deployment, error) {
	dep := &deployment{hc: controlClient()}
	var addrs []string
	if len(dirs) > 1 {
		var err error
		if addrs, err = freePorts(len(dirs)); err != nil {
			return nil, err
		}
		dep.peers = addrs
	}
	addrFiles := make([]string, len(dirs))
	for i, dir := range dirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			dep.stop()
			return nil, err
		}
		addrFile := filepath.Join(logDir, fmt.Sprintf("node%d.addr", i))
		addrFiles[i] = addrFile
		os.Remove(addrFile)
		args := []string{"-data", dir, "-quiet", "-addrfile", addrFile}
		if addrs != nil {
			args = append(args, "-addr", addrs[i], "-cluster-self", addrs[i],
				"-cluster-peers", strings.Join(addrs, ","))
		} else {
			args = append(args, "-addr", "127.0.0.1:0")
		}
		logf, err := os.OpenFile(filepath.Join(logDir, fmt.Sprintf("node%d.log", i)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			dep.stop()
			return nil, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The daemons die with the benchmark even if it is killed outright.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			dep.stop()
			return nil, fmt.Errorf("start locshortd: %w", err)
		}
		d := &daemon{cmd: cmd, dir: dir, done: make(chan struct{})}
		go func() {
			d.err = cmd.Wait()
			close(d.done)
		}()
		dep.nodes = append(dep.nodes, d)
	}
	for i, d := range dep.nodes {
		addr, err := awaitAddr(ctx, d, addrFiles[i])
		if err != nil {
			dep.stop()
			return nil, fmt.Errorf("node %d: %w (log in %s)", i, err, logDir)
		}
		d.addr, d.base = addr, "http://"+addr
	}
	allBound := time.Now()
	for i, d := range dep.nodes {
		if err := dep.awaitReady(ctx, d); err != nil {
			dep.stop()
			return nil, fmt.Errorf("node %d: %w (log in %s)", i, err, logDir)
		}
	}
	if dep.peers != nil {
		// A node that probed a peer before the peer's listener was bound
		// holds it in down backoff and serves the peer's keys itself until
		// the backoff expires. Wait that out: timed traffic must see the
		// ring route.
		if err := sleepCtx(ctx, time.Until(allBound.Add(peerDownBackoff))); err != nil {
			dep.stop()
			return nil, err
		}
	}
	return dep, nil
}

// peerDownBackoff is internal/cluster's default DownBackoff (locshortd has
// no flag for it), plus a margin.
const peerDownBackoff = 2*time.Second + 100*time.Millisecond

// Readiness polling is fine-grained because set-up time is a metric: a
// coarse poll would quantize it.
const readyPoll = 2 * time.Millisecond

func awaitAddr(ctx context.Context, d *daemon, file string) (string, error) {
	deadline := time.Now().Add(time.Minute)
	for {
		if b, err := os.ReadFile(file); err == nil && len(b) > 0 {
			return string(b), nil
		}
		select {
		case <-d.done:
			return "", fmt.Errorf("locshortd exited before binding: %v", d.err)
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			return "", errors.New("locshortd did not bind within a minute")
		}
	}
}

func (dep *deployment) awaitReady(ctx context.Context, d *daemon) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := dep.hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("locshortd exited before ready: %v", d.err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			return errors.New("locshortd not ready within two minutes")
		}
	}
}

// stopGrace bounds a daemon's graceful shutdown. A clean shutdown drains
// the engine's detached store persists; with store-mixed's writes under
// CPU contention from another process, that backlog took over 15 s.
const stopGrace = 90 * time.Second

// stop terminates every daemon (SIGTERM, then SIGKILL after stopGrace)
// and waits for each to exit. It reports the first unclean exit.
func (dep *deployment) stop() error {
	if dep == nil {
		return nil
	}
	dep.hc.CloseIdleConnections()
	if dep.ctl != nil {
		dep.ctl.close()
		dep.ctl = nil
	}
	var first error
	for _, d := range dep.nodes {
		d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for i, d := range dep.nodes {
		select {
		case <-d.done:
		case <-time.After(stopGrace):
			d.cmd.Process.Kill()
			<-d.done
		}
		if d.err != nil && first == nil {
			first = fmt.Errorf("node %d exit: %w", i, d.err)
		}
	}
	dep.nodes = nil
	return first
}

// postJSON sends body to path on base and decodes a 200 answer into out.
func (dep *deployment) postJSON(base, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := dep.hc.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (dep *deployment) stats(d *daemon) (service.Stats, error) {
	var out struct {
		Stats service.Stats `json:"stats"`
	}
	resp, err := dep.hc.Get(d.base + "/v1/stats")
	if err != nil {
		return out.Stats, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out.Stats, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.Stats, err
}

// serverSnap is the deployment's cumulative server-side state, summed over
// its nodes: differences of two snapshots bracket a timed window.
type serverSnap struct {
	cpuTicks  int64   // utime+stime, clock ticks
	mallocs   float64 // locshort_go_mallocs_total
	shortSum  float64 // POST /v1/shortcuts handler seconds, histogram _sum
	shortN    float64 // and _count
	forwards  float64 // locshort_cluster_forwards_total{outcome="ok"}
	hits      uint64
	misses    uint64
	builds    uint64
	storeHits uint64
	storeMiss uint64
}

const shortcutRoute = "POST /v1/shortcuts"

func (dep *deployment) snapshot() (serverSnap, error) {
	var s serverSnap
	for _, d := range dep.nodes {
		ticks, err := procCPUTicks(d.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.cpuTicks += ticks
		resp, err := dep.hc.Get(d.base + "/metrics")
		if err != nil {
			return s, err
		}
		sc, err := obs.ParsePrometheus(resp.Body)
		resp.Body.Close()
		if err != nil {
			return s, fmt.Errorf("parse /metrics: %w", err)
		}
		m, ok := sc.Value("locshort_go_mallocs_total", nil)
		if !ok {
			return s, errors.New("/metrics lacks locshort_go_mallocs_total")
		}
		s.mallocs += m
		route := obs.Labels{"route": shortcutRoute}
		v, _ := sc.Value("locshort_http_request_seconds_sum", route)
		s.shortSum += v
		v, _ = sc.Value("locshort_http_request_seconds_count", route)
		s.shortN += v
		v, _ = sc.Value("locshort_cluster_forwards_total", obs.Labels{"outcome": "ok"})
		s.forwards += v
		st, err := dep.stats(d)
		if err != nil {
			return s, err
		}
		s.hits += st.CacheHits
		s.misses += st.CacheMisses
		s.builds += st.Builds
		s.storeHits += st.StoreHits
		s.storeMiss += st.StoreMisses
	}
	return s, nil
}

// peakRSSMiB sums VmHWM over the daemons.
func (dep *deployment) peakRSSMiB() (float64, error) {
	var kb int64
	for _, d := range dep.nodes {
		v, err := procStatusKB(d.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPUTicks returns utime+stime of a process, all threads included.
func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return u + s, nil
}

func procStatusKB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// hostCPU is the aggregate line of /proc/stat: steal and total jiffies.
type hostCPU struct{ steal, total int64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("malformed /proc/stat")
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, err
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h, nil
}

// stealShare is the host's steal time over total CPU time between a and b.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
