// Package leakcheck is test support: the check a test binary runs after
// its tests that no goroutine started by this module's code outlived
// them.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests, then fails the binary if Check does.
func Main(m *testing.M) {
	code := m.Run()
	if err := Check(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

// Check gives the goroutines with a repro/internal/ frame on their stack
// (created by one counts too) up to a second to exit, and reports the
// stacks of those still there. The calling goroutine is not counted.
func Check() error {
	deadline := time.Now().Add(time.Second)
	for {
		left := stacks()
		if len(left) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leakcheck: %d goroutines outlived the tests:\n\n%s", len(left), strings.Join(left, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stacks returns the stack of every goroutine but the caller's that has
// a repro/internal/ frame.
func stacks() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var left []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // the caller's own comes first
		if strings.Contains(g, "repro/internal/") {
			left = append(left, g)
		}
	}
	return left
}
