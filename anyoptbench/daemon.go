package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRepeats is how many times setup_s is measured per run; the median is
// reported so one slow start does not move the figure.
const setupRepeats = 11

// daemon is one running anyoptd process listening on loopback.
type daemon struct {
	cmd    *exec.Cmd
	pid    int
	base   string
	logf   *os.File
	exited chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startDaemon execs anyoptd with args and waits until GET /v1/testbed
// answers; the returned duration runs from exec to that first answer.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even when the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting anyoptd: %w", err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, base: "http://" + addr, logf: logf, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()

	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	defer probe.CloseIdleConnections()
	deadline := t0.Add(120 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/v1/testbed")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case err := <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("anyoptd exited during start-up: %v (log %s)", err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("anyoptd did not answer /v1/testbed within 120s (log %s)", logPath)
		}
	}
}

// stop kills the process and waits until it has exited.
func (d *daemon) stop() {
	if d == nil || d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.exited
	d.logf.Close()
	d.cmd = nil
}

// startMeasured starts anyoptd setupRepeats times, stopping all but the
// last, and returns that last daemon with every setup time in seconds.
func startMeasured(bin string, args []string, logPath string) (*daemon, []float64, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		d, dur, err := startDaemon(bin, args, logPath)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, dur.Seconds())
		if i == setupRepeats-1 {
			return d, setups, nil
		}
		d.stop()
	}
	panic("unreachable")
}

// client is the benchmark's HTTP client: keep-alive, at most two loopback
// connections, with the dials counted so the report can state them.
type client struct {
	base  string
	hc    *http.Client
	dials atomic.Int64
}

func newClient(base string) *client {
	c := &client{base: base}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	c.hc = &http.Client{Transport: tr, Timeout: 150 * time.Second}
	return c
}

// reply is one completed request.
type reply struct {
	status int
	body   []byte
	sent   time.Time
	lat    time.Duration
}

func (r reply) ok() bool { return r.status >= 200 && r.status < 300 }

// do sends one request and reads the whole reply body.
func (c *client) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sent := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{sent: sent, lat: time.Since(sent)}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(sent)
	if err != nil {
		return reply{sent: sent, lat: lat}, err
	}
	return reply{status: resp.StatusCode, body: b, sent: sent, lat: lat}, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }
