package main

import (
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

const (
	readyPoll    = 2 * time.Millisecond
	readyTimeout = 60 * time.Second
	stopTimeout  = 15 * time.Second
	// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
	// it is 100 on every mainstream Linux build.
	clockTicks = 100
)

// server is one running child server: `egeria serve`, or the reference
// server. Its output goes to /dev/null: access logging would otherwise
// cost the server a write per request.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
}

// startServer execs bin with the arguments args gives for a free loopback
// address, and returns once readyPath answers 200, with the time from exec
// to that answer.
func startServer(bin string, args func(addr string) []string, readyPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, args(addr)...)
	// a benchmark killed mid-run must not leave its server running
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.done <- cmd.Wait() }()
	deadline := start.Add(readyTimeout)
	for {
		resp, err := probe.Get(s.base + readyPath)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("server exited before ready: %v", err)
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			_ = s.stop()
			return nil, 0, fmt.Errorf("server not ready after %v", readyTimeout)
		}
	}
}

// stop sends SIGTERM (the server drains), kills it after stopTimeout, and
// returns once the process has exited.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signal server: %w", err)
	}
	select {
	case <-s.done:
		return nil
	case <-time.After(stopTimeout):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("server ignored SIGTERM for %v; killed", stopTimeout)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// cpuTicks returns the process's utime+stime in clock ticks.
func cpuTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// the command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis, after which field 3 comes first
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %v %v", pid, err1, err2)
	}
	return utime + stime, nil
}

// peakRSSMB returns the process's VmHWM (peak resident set) in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
