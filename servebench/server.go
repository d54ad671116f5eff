package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// node is one cmd/serve child process.
type node struct {
	id     string
	url    string
	cmd    *exec.Cmd
	logf   *os.File
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

var (
	liveMu sync.Mutex
	live   = map[*node]bool{}
)

// startNode launches the server binary with args, logging to logPath.
func startNode(cfg config, id string, port int, logPath string, args ...string) (*node, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args = append([]string{
		"-addr", addr,
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-drain-timeout", "1s",
	}, args...)
	cmd := exec.Command(cfg.serveBin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting server %s: %w", id, err)
	}
	n := &node{id: id, url: "http://" + addr, cmd: cmd, logf: f, exited: make(chan struct{})}
	liveMu.Lock()
	live[n] = true
	liveMu.Unlock()
	go func() {
		n.err = cmd.Wait()
		close(n.exited)
	}()
	return n, nil
}

// waitReady polls /readyz until the server answers 200.
func (n *node) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-n.exited:
			return fmt.Errorf("server %s exited before it was ready: %v (log %s)", n.id, n.err, n.logf.Name())
		default:
		}
		resp, err := c.Get(n.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %s not ready after %v (log %s)", n.id, timeout, n.logf.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (n *node) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", n.cmd.Process.Pid)
}

// stop asks the server to drain, kills it if it has not exited within
// a few seconds, and waits for it to end.
func (n *node) stop() {
	n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.exited:
	case <-time.After(5 * time.Second):
		n.cmd.Process.Kill()
		<-n.exited
	}
	n.logf.Close()
	liveMu.Lock()
	delete(live, n)
	liveMu.Unlock()
}

func stopAll(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

// stopAllNodes stops every server still running.
func stopAllNodes() {
	liveMu.Lock()
	nodes := make([]*node, 0, len(live))
	for n := range live {
		nodes = append(nodes, n)
	}
	liveMu.Unlock()
	stopAll(nodes)
}

// sumPeakRSSMB sums peakRSSMB over the nodes.
func sumPeakRSSMB(nodes []*node) (float64, error) {
	total := 0.0
	for _, n := range nodes {
		mb, err := n.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// freePorts reserves n distinct loopback ports and releases them for
// the servers to bind.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// newClient returns an HTTP client holding at most conns connections
// per host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}
