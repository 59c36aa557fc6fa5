package sched

import (
	"fmt"
	"strings"
)

// Backend names (Options.Backend values). Both backends produce a complete,
// verified Schedule for the whole kernel; they differ in how loop bodies are
// laid out: the list backend runs iterations back-to-back, the modulo
// backend software-pipelines eligible innermost loops at a minimized
// initiation interval and falls back to the list layout elsewhere.
const (
	// BackendList is the paper's list scheduler (the default).
	BackendList = "list"
	// BackendModulo software-pipelines eligible innermost loops with the
	// iterative modulo scheduler (internal/modsched).
	BackendModulo = "modulo"
)

// Backends lists the valid backend names, sorted.
func Backends() []string { return []string{BackendList, BackendModulo} }

// BackendByName resolves a backend name to its canonical form; the empty
// string selects the list backend. Unknown names fail with the valid choices
// spelled out, so flag parsing can reject them before any compilation work
// starts.
func BackendByName(name string) (string, error) {
	switch name {
	case "", BackendList:
		return BackendList, nil
	case BackendModulo:
		return BackendModulo, nil
	}
	return "", fmt.Errorf("sched: unknown backend %q (valid: %s)", name, strings.Join(Backends(), ", "))
}
