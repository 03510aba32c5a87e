package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is the one directory the benchmark writes to: the server binary
// and, below it, one scratch directory per run. It is relative to the
// checkout root the benchmark is run from.
const buildDir = ".bench_build"

// clockTicksPerSecond is the unit of utime/stime in /proc/<pid>/stat
// (USER_HZ). It is 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// buildServer compiles cmd/aidaserver from the checkout into buildDir and
// returns the binary's path and how long the build took. The go tool's own
// cache makes a repeated build a sub-second no-op.
func buildServer(ctx context.Context) (string, time.Duration, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "aidaserver"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/aidaserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/aidaserver: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// serverProc is one running aidaserver process.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches the binary with args plus a fresh -addr and returns
// once /healthz answers 200. The process logs to logPath. Cancelling ctx
// kills it, so an interrupted benchmark leaves no server behind.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	s := &serverProc{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(60 * time.Second); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w\n--- server log tail ---\n%s", err, s.logTail())
	}
	return s, nil
}

func (s *serverProc) waitReady(timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before becoming ready: %v", s.waitErr)
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server not ready within " + timeout.String())
}

// stop asks the server to drain (SIGTERM) and waits for it to exit; a
// process that does not is killed. It always returns with the process gone.
func (s *serverProc) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *serverProc) logTail() string {
	data, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// cpuSeconds is the user+system CPU time the server process has consumed,
// from /proc/<pid>/stat — independent of how the scheduler interleaved it
// with the load generator.
func (s *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(data)
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) in seconds. The
// command name in field 2 may itself contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStatCPU(data []byte) (float64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat: no command field")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat: too few fields")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func (s *serverProc) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
