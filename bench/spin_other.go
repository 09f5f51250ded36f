//go:build !linux

package main

import "errors"

const spinnerEnv = "LEGOSDN_BENCH_SPINNER"

func spinnerMain(int) {}

// startSpinners needs Linux's SCHED_IDLE; see spin_linux.go.
func startSpinners() (func(), bool, error) {
	return nil, false, errors.New("idle spinners are implemented for linux only")
}
