package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smartarrays/internal/queryd"
)

// server is one saserve process.
type server struct {
	cmd  *exec.Cmd
	addr string
	// setup is the time from process start until /datasets listed the
	// dataset.
	setup time.Duration
	meta  queryd.Meta
	// done is closed once the process has exited and been reaped.
	done chan struct{}
}

// startServer runs the saserve binary with args on an ephemeral
// loopback port and waits until /datasets lists the demo dataset.
// scratch holds the address file.
func startServer(binary, scratch string, args []string) (*server, error) {
	addrFile := filepath.Join(scratch, "saserve.addr")
	_ = os.Remove(addrFile) // a stale file from an earlier server would point elsewhere
	all := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-dataset", datasetName}, args...)
	cmd := exec.Command(binary, all...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting saserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(s.done)
	}()
	deadline := start.Add(120 * time.Second)
	for {
		select {
		case <-s.done:
			return nil, fmt.Errorf("saserve exited during start-up: %v", waitErr)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("saserve did not list its dataset within 120s")
		}
		if s.addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
				s.addr = strings.TrimSpace(string(b))
			}
		}
		if s.addr != "" {
			if m, ok := fetchDataset(s.addr); ok {
				s.setup = time.Since(start)
				s.meta = m
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fetchDataset returns the demo dataset's catalog entry once /datasets
// lists it.
func fetchDataset(addr string) (queryd.Meta, bool) {
	resp, err := http.Get("http://" + addr + "/datasets")
	if err != nil {
		return queryd.Meta{}, false
	}
	defer resp.Body.Close()
	var body struct {
		Datasets []queryd.Meta `json:"datasets"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return queryd.Meta{}, false
	}
	for _, m := range body.Datasets {
		if m.Name == datasetName {
			return m, true
		}
	}
	return queryd.Meta{}, false
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop terminates the server and waits for it to exit. Calling it
// again is harmless.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}
