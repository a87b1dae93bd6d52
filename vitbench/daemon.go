package main

import (
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

	"vitdyn/internal/costdb"
	"vitdyn/internal/engine"
	"vitdyn/internal/obs"
	"vitdyn/internal/serve"
)

// daemonConfig is how one fleet of vitdynd processes is started.
type daemonConfig struct {
	bin         string
	dir         string   // per-boot working directory (logs)
	stores      []string // one -store-path per daemon; its length is the fleet size
	gossip      time.Duration
	requestzCap int // > 0 also starts the -debug-addr listener
}

// daemon is one running vitdynd child process.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	debug string
	store string
	log   string
	done  chan struct{}
}

// freeAddrs reserves n distinct loopback ports and releases them, so
// a fleet can be told its peers' addresses before any daemon binds.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	var out []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// startFleet spawns one daemon per store and waits until every one
// answers /healthz with 200. On error every started daemon is stopped.
func startFleet(ctx context.Context, cfg daemonConfig) ([]*daemon, error) {
	n := len(cfg.stores)
	addrs, err := freeAddrs(2 * n)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	var ds []*daemon
	for i := 0; i < n; i++ {
		d := &daemon{addr: addrs[i], store: cfg.stores[i], log: filepath.Join(cfg.dir, fmt.Sprintf("vitdynd-%d.log", i)), done: make(chan struct{})}
		args := []string{"-addr", d.addr, "-quiet", "-store-path", d.store}
		if n > 1 {
			var peers []string
			for j := 0; j < n; j++ {
				if j != i {
					peers = append(peers, addrs[j])
				}
			}
			args = append(args, "-peers", strings.Join(peers, ","), "-gossip-interval", cfg.gossip.String())
		}
		if cfg.requestzCap > 0 {
			d.debug = addrs[n+i]
			args = append(args, "-debug-addr", d.debug, "-requestz", strconv.Itoa(cfg.requestzCap))
		}
		logf, err := os.Create(d.log)
		if err != nil {
			stopFleet(ds)
			return nil, err
		}
		d.cmd = exec.Command(cfg.bin, args...)
		d.cmd.Env = daemonEnv()
		d.cmd.Stdout, d.cmd.Stderr = logf, logf
		if err := d.cmd.Start(); err != nil {
			logf.Close()
			stopFleet(ds)
			return nil, fmt.Errorf("starting vitdynd: %w", err)
		}
		go func() {
			d.cmd.Wait()
			logf.Close()
			close(d.done)
		}()
		ds = append(ds, d)
	}
	for _, d := range ds {
		if err := d.waitHealthy(ctx); err != nil {
			stopFleet(ds)
			return nil, err
		}
	}
	return ds, nil
}

// daemonEnv is the environment daemons run in: the benchmark's own,
// minus any GOMAXPROCS or GOGC meant for the generator, so every daemon
// runs with the Go defaults.
func daemonEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") && !strings.HasPrefix(kv, "GOGC=") {
			env = append(env, kv)
		}
	}
	return env
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

// waitHealthy polls /healthz every millisecond until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("vitdynd exited during start-up: %s", tail(d.log))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := probeClient.Get("http://" + d.addr + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("vitdynd on %s not healthy after 30s: %s", d.addr, tail(d.log))
}

// tail returns the last few hundred bytes of a log file.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// stop sends SIGTERM (the daemon drains and compacts its store) and
// waits for the process to exit, killing it after 30 seconds.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// stopFleet stops every daemon concurrently and waits for all of them.
func stopFleet(ds []*daemon) {
	done := make(chan struct{})
	for _, d := range ds {
		go func(d *daemon) { d.stop(); done <- struct{}{} }(d)
	}
	for range ds {
		<-done
	}
}

// exited reports whether the process has already ended.
func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// cpuMS is the process's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func (d *daemon) cpuMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) * 10, nil
}

// hostSteal reads the host's cumulative stolen and total CPU ticks from
// /proc/stat; zeros when unreadable (the figure is informational).
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's VmHWM from /proc/<pid>/status, in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// statsz is the part of the daemon's /statsz the benchmark reads.
type statsz struct {
	Store         serve.StoreStats        `json:"store"`
	CatalogCache  serve.CatalogCacheStats `json:"catalog_cache"`
	ResponseCache serve.RespCacheStats    `json:"response_cache"`
	Server        struct {
		SweepsCompleted int64 `json:"sweeps_completed"`
		SweepsRejected  int64 `json:"sweeps_rejected"`
	} `json:"server"`
	Stream engine.StreamStats `json:"stream"`
	Replay struct {
		Frames int64 `json:"frames"`
	} `json:"replay"`
	Costdb *costdb.Stats      `json:"costdb"`
	Gossip *serve.GossipStats `json:"gossip"`
}

// statsClient fetches /statsz and /debug/requestz, the latter tens of
// megabytes after a traced warm phase.
var statsClient = &http.Client{Timeout: 60 * time.Second}

func getJSON(url string, v any) error {
	resp, err := statsClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemon) statsz() (statsz, error) {
	var st statsz
	err := getJSON("http://"+d.addr+"/statsz", &st)
	return st, err
}

func (d *daemon) requestz() (obs.RequestzSnapshot, error) {
	var snap obs.RequestzSnapshot
	err := getJSON("http://"+d.debug+"/debug/requestz", &snap)
	return snap, err
}
