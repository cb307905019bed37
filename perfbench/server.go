package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process under test. The benchmark is Linux-only:
// it reads peak RSS from /proc and ties the child's life to its own
// with Pdeathsig, so a killed benchmark leaves no server behind.
type proc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error
	log  *os.File
}

var errExited = errors.New("server exited during boot")

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startProc execs bin with args plus -addr, logging to logPath.
func startProc(bin string, args []string, logPath string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logf}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitReady polls GET /healthz until the server answers 200.
func (p *proc) waitReady(c *conn, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%w: %v (log %s)", errExited, p.err, p.log.Name())
		default:
		}
		if status, _, err := c.get("/healthz"); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("server not ready within " + timeout.String())
}

// stop sends SIGTERM, waits for a clean drain, and kills the process
// if it has not exited after a grace period. It returns once the
// process is gone.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// cpuTicks is the all-CPU line of /proc/stat: total and stolen ticks.
type cpuTicks struct{ total, steal float64 }

// readSteal reads how much CPU time the hypervisor has taken from this
// VM; zero values where /proc/stat is unavailable.
func readSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the share of CPU time stolen between start and t.
func (t cpuTicks) since(start cpuTicks) float64 {
	if t.total <= start.total {
		return 0
	}
	return (t.steal - start.steal) / (t.total - start.total)
}
