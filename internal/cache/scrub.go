// The scrubber: the disk tier's self-healing loop. A pass re-reads every
// on-disk entry, verifies its frame (magic, version, SHA-256 checksum),
// quarantines anything rotten before a request trips over it, reconciles
// the disk index with what is actually on disk, and — when the store has
// failed over to memory-only degraded mode — probes the disk with a small
// write so a recovered disk (space freed, transient errors gone) is put
// back into service without a restart.
//
// One pass runs at startup and then every Options.ScrubInterval in a
// background goroutine (stopped by Store.Close); ScrubNow runs a pass
// synchronously for tests and the chaos soak's recovery check.
package cache

import (
	"fmt"
	"strings"
	"time"
)

// ScrubReport summarizes one scrubber pass.
type ScrubReport struct {
	// Checked counts entries whose checksum verified clean.
	Checked int
	// Quarantined counts corrupt entries moved aside this pass.
	Quarantined int
	// IOErrors counts entries that could not be read (left in place; a
	// later pass or Get retries them).
	IOErrors int
	// Healed reports that this pass exited memory-only degraded mode.
	Healed bool
}

// Clean reports a pass that found the disk tier fully healthy.
func (r ScrubReport) Clean() bool { return r.Quarantined == 0 && r.IOErrors == 0 }

func (r ScrubReport) String() string {
	return fmt.Sprintf("scrub: %d clean, %d quarantined, %d io-errors", r.Checked, r.Quarantined, r.IOErrors)
}

// ScrubNow waits for every queued disk commit, then runs one synchronous
// scrubber pass over the disk tier. Safe to call concurrently with
// Get/Put; memory-only stores report an empty (clean) pass.
func (s *Store) ScrubNow() ScrubReport {
	var rep ScrubReport
	if s.dir == "" {
		return rep
	}
	s.settle()
	s.scrubRuns.Inc()

	// Walk the directory rather than the index: the scrubber is also the
	// reconciliation path for entries that appeared (another process,
	// recovered disk) or vanished (operator rm) behind the index's back.
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		rep.IOErrors++
		s.scrubErrors.Inc()
		return rep
	}
	onDisk := map[string]bool{}
	for _, e := range ents {
		name := e.Name()
		key, ok := strings.CutSuffix(name, ".art")
		if !ok || strings.Contains(name, ".tmp-") {
			continue
		}
		onDisk[key] = true
		data, err := s.fs.ReadFile(s.Path(key))
		if err != nil {
			rep.IOErrors++
			s.scrubErrors.Inc()
			continue
		}
		if err := verifyEntry(data); err != nil {
			s.quarantineKey(key)
			rep.Quarantined++
			s.scrubQuarantined.Inc()
			continue
		}
		rep.Checked++
		s.scrubChecked.Inc()
		s.mu.Lock()
		if el, known := s.disk[key]; known {
			// Refresh the size without disturbing recency.
			de := el.Value.(*diskEntry)
			s.diskBytes += int64(len(data)) - de.size
			de.size = int64(len(data))
		} else {
			s.touchDiskLocked(key, int64(len(data)))
		}
		s.mu.Unlock()
	}

	// Drop index entries whose files vanished.
	s.mu.Lock()
	for key := range s.disk {
		if !onDisk[key] {
			s.dropDiskLocked(key)
		}
	}
	s.enforceDiskCapLocked()
	s.publishDiskGaugesLocked()
	s.mu.Unlock()

	if s.degraded.Load() && s.probeDisk() {
		s.setDegraded(false)
		rep.Healed = true
	}
	return rep
}

// probeDisk checks whether the disk accepts a commit again: a small probe
// entry is written through the same path as a real commit, then removed.
func (s *Store) probeDisk() bool {
	const probeKey = "scrub-probe"
	if err := s.writeEntry(probeKey, []byte("cgra-cache-probe")); err != nil {
		return false
	}
	_ = s.fs.Remove(s.Path(probeKey))
	return true
}

// scrubLoop is the background scrubber: one startup pass, then one per
// interval until Close.
func (s *Store) scrubLoop(interval time.Duration) {
	defer close(s.scrubDone)
	s.ScrubNow()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.ScrubNow()
		}
	}
}
