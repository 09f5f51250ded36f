//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Idle spinners.
//
// On a virtual machine an idle vCPU halts, and waking it costs a trip
// through the host's scheduler whose length depends on the neighbours.
// This stack hands an event from goroutine to goroutine a dozen times,
// blocks on a UDP socket between most of them, and so pays that wake-up
// constantly. Interleaved runs with and without spinners on the sizing
// sandbox (README.md has the table): without them every end-to-end
// statistic spread by 17 to 42 % from run to run, the middle of the
// distributions and their ends alike, which no bound the benchmark may
// set can hold. One busy loop per CPU in the SCHED_IDLE class keeps the
// vCPUs from halting and yields to any real thread at once, like booting
// with idle=poll or running tuned's network-latency profile. It changes
// nothing in the program under test.
//
// The spinners are children of this process: the benchmark's own Go
// runtime keeps its default GOMAXPROCS. A child leaves when its standard
// input closes, so none outlives a parent that was killed.

// spinnerEnv marks a process as spinner number N.
const spinnerEnv = "LEGOSDN_BENCH_SPINNER"

const (
	schedIdle   = 5 // SCHED_IDLE
	prioProcess = 0 // PRIO_PROCESS
)

// spinnerMain is the child: pin, drop to the idle class, report which
// class it got, spin.
func spinnerMain(index int) {
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	runtime.LockOSThread()
	pinToCPU(index)
	class := "idle"
	param := struct{ priority int32 }{0}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	if errno != 0 {
		// No idle class here: the lowest nice value is the next best, but
		// it takes a share of the CPU from the stack, so the run says so.
		class = "nice"
		if err := syscall.Setpriority(prioProcess, 0, 19); err != nil {
			fmt.Printf("failed: SCHED_IDLE: %v, nice 19: %v\n", errno, err)
			os.Exit(3)
		}
	}
	fmt.Println("ready", class)
	for {
	}
}

// pinToCPU binds the calling thread to the index-th CPU it may run on;
// best effort, an unpinned spinner still serves.
func pinToCPU(index int) {
	var mask [16]uint64
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return
	}
	seen := 0
	for cpu := 0; cpu < len(mask)*64; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		if seen == index {
			var one [16]uint64
			one[cpu/64] = 1 << (cpu % 64)
			_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			return
		}
		seen++
	}
}

// startSpinners launches one spinner per CPU and waits until each has
// reached its class. stop ends them and waits for their exit. degraded
// is set when a spinner had to settle for nice 19.
func startSpinners() (stop func(), degraded bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
	}
	var children []child
	stop = func() {
		for _, c := range children {
			c.stdin.Close()
		}
		for _, c := range children {
			done := make(chan struct{})
			go func() {
				_ = c.cmd.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				_ = c.cmd.Process.Kill()
				<-done
			}
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), spinnerEnv+"="+strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			stop()
			return nil, false, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			stop()
			return nil, false, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, false, err
		}
		children = append(children, child{cmd, stdin})
		line, err := bufio.NewReader(stdout).ReadString('\n')
		class, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
		if err != nil || !ok {
			stop()
			return nil, false, fmt.Errorf("spinner %d: %q %v", i, line, err)
		}
		degraded = degraded || class != "idle"
	}
	return stop, degraded, nil
}
