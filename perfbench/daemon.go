package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running ntadocd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan error
	client *http.Client
}

// startDaemon execs the daemon on a free loopback port and returns once
// /healthz answers 200.
func startDaemon(ctx context.Context, bin, archive string, flags []string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	args = append(args, archive)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1), client: newClient()}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ntadocd: listening on "); ok {
				addr <- a
			}
		}
		// The pipe closes when the daemon exits; Wait may only run after
		// every read from it has finished.
		d.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.exited:
		return nil, fmt.Errorf("daemon exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("daemon did not report its address within 60s")
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("daemon exited before healthy: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// newClient is an HTTP client that keeps enough idle connections for the
// closed-loop clients and the correctness check's workers, so each reuses
// its connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the daemon if
// it has not exited within 30 seconds.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait reports it
	var err error
	select {
	case err = <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-d.exited
		if err == nil {
			err = errors.New("daemon ignored SIGTERM")
		}
	}
	d.client.CloseIdleConnections()
	return err
}

// metrics scrapes /metrics.
func (d *daemon) metrics() (promMetrics, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// peakRSSMB is the daemon's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %v", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
