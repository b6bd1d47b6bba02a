package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/monitorapi"
)

// daemon is a running linmond child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs *syncBuf // everything the daemon wrote to stderr
	done chan struct{}
}

// syncBuf is a bytes.Buffer guarded for one writer and later readers.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon launches linmond on an ephemeral loopback port and returns once
// it has logged its listening address.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-listen", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logs: &syncBuf{}, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(d.logs, line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				if a, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addr <- a:
					default:
					}
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.done:
	case <-time.After(30 * time.Second):
	}
	d.stop()
	return nil, fmt.Errorf("linmond did not report a listening address: %s", d.logs.String())
}

// stop sends SIGTERM (linmond drains and writes its final checkpoints), waits
// for the process to exit and returns its resource usage.
func (d *daemon) stop() (*syscall.Rusage, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		err = errors.Join(errors.New("linmond ignored SIGTERM for 60s"), <-exited)
	}
	<-d.done
	// A daemon stopped right after start may not have installed its signal
	// handler yet; dying of the SIGTERM is then a clean stop too.
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, err
}

// hello opens a session on object name, waits for the hello and sends bye.
func hello(addr, name string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write(openFrame("setup", name, "counter", check.Config{})); err != nil {
		return err
	}
	var f monitorapi.ServerFrame
	if err := json.NewDecoder(conn).Decode(&f); err != nil {
		return err
	}
	if f.Type != monitorapi.FrameHello {
		return fmt.Errorf("open answered by %s %q", f.Type, f.Err)
	}
	_, err = conn.Write(byeFrame)
	return err
}

// procSample is a child's cumulative CPU time and peak RSS from /proc.
type procSample struct {
	cpu    time.Duration
	hwmKiB int64
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTick = 10 * time.Millisecond

func sampleProc(pid int) (procSample, error) {
	var s procSample
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return s, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return s, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return s, err
	}
	s.cpu = time.Duration(ut+st) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			s.hwmKiB, _ = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return s, nil
}

// hostTicks returns the host's steal time and its total time so far, in
// clock ticks summed over its CPUs, from the first line of /proc/stat. Steal
// is time a virtual machine's CPUs were ready but the hypervisor ran other
// guests; both are 0 where /proc/stat has no steal column.
func hostTicks() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // guest times are already inside user and nice
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealShare is the share of the host's time stolen between two hostTicks
// readings; 0 when nothing was read.
func stealShare(steal0, total0, steal1, total1 int64) float64 {
	return ratio(float64(steal1-steal0), float64(total1-total0))
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runResult is one finished linverify run.
type runResult struct {
	wall   time.Duration
	cpu    time.Duration
	rssKiB int64
	code   int
	stdout string
}

// runTool runs a command to completion and measures it.
func runTool(bin string, args ...string) (runResult, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t := time.Now()
	err := cmd.Run()
	r := runResult{wall: time.Since(t), stdout: out.String()}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return r, err
	}
	r.code = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = rusageCPU(ru)
		r.rssKiB = ru.Maxrss
	}
	if errOut.Len() > 0 && r.code == 2 {
		return r, fmt.Errorf("%s: %s", bin, strings.TrimSpace(errOut.String()))
	}
	return r, nil
}

// fsType names the filesystem holding path (the durable workload records
// where its checkpoints went).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x9123683E:
		return "btrfs"
	case 0x58465342:
		return "xfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
