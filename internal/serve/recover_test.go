package serve

import (
	"encoding/json"
	"testing"

	"rainbar/internal/serve/journal"
)

// writeJournal builds a journal in dir through the public API.
func writeJournal(t *testing.T, dir string, recs []journal.Record) {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func submitRecord(t *testing.T, id uint64, rounds int) journal.Record {
	t.Helper()
	spec, err := json.Marshal(SessionSpec{Payload: []byte{byte(id)}, MaxRounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	return journal.Record{Kind: journal.KindSubmit, ID: id, Spec: spec}
}

// TestRecoverEmptyJournal: recovering a missing or empty journal yields
// a fresh, working server.
func TestRecoverEmptyJournal(t *testing.T) {
	s, rep, err := Recover(t.TempDir(), journal.Options{}, Config{Workers: 1, Factory: fakeFactory{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Drain()
		s.Journal().Close()
	}()
	if len(rep.Sessions) != 0 || rep.Checkpointed+rep.Resubmitted+rep.Skipped != 0 {
		t.Fatalf("recovered something from nothing: %+v", rep)
	}
	id, err := s.Submit(SessionSpec{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first id on a fresh recovery = %d, want 1", id)
	}
	s.Quiesce()
}

// TestRecoverPreservesIdentity: sessions come back under their
// pre-crash ids, terminal sessions stay dead, and no journaled id —
// live or retired — is ever reissued.
func TestRecoverPreservesIdentity(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, []journal.Record{
		submitRecord(t, 2, 2),
		submitRecord(t, 5, 3),
		{Kind: journal.KindTerminal, ID: 7, State: uint8(StateDone)},
	})
	s, rep, err := Recover(dir, journal.Options{}, Config{Workers: 1, Factory: fakeFactory{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Drain()
		s.Journal().Close()
	}()
	if len(rep.Sessions) != 2 || rep.Resubmitted != 2 || rep.Checkpointed != 0 {
		t.Fatalf("report %+v, want exactly the two live submits resubmitted", rep)
	}
	for _, id := range []uint64{2, 5} {
		if _, err := s.Info(id); err != nil {
			t.Fatalf("pre-crash handle %d is dead: %v", id, err)
		}
	}
	if _, err := s.Info(7); err == nil {
		t.Fatal("terminal session 7 resurrected")
	}
	// nextID ratchets past every journaled id, including the retired 7.
	id, err := s.Submit(SessionSpec{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if id != 8 {
		t.Fatalf("post-recovery id = %d, want 8 (no journaled id may alias)", id)
	}
	s.Quiesce()
	for _, info := range s.Sessions() {
		if info.State != StateDone {
			t.Fatalf("session %d ended %s", info.ID, info.State)
		}
	}
}

// TestRecoverSkipsDamagedSession: one unparseable session must not take
// the fleet down — it is skipped and counted.
func TestRecoverSkipsDamagedSession(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, []journal.Record{
		submitRecord(t, 1, 1),
		{Kind: journal.KindSubmit, ID: 2, Spec: []byte("not json")},
	})
	s, rep, err := Recover(dir, journal.Options{}, Config{Workers: 1, Factory: fakeFactory{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Drain()
		s.Journal().Close()
	}()
	if rep.Skipped != 1 || len(rep.Sessions) != 1 || rep.Sessions[0] != 1 {
		t.Fatalf("report %+v, want session 1 recovered and session 2 skipped", rep)
	}
}

// TestRecoverRespectsMaxSessions: a smaller post-crash capacity skips
// the overflow instead of failing recovery. The sessions hold at a gate
// until the test ends, so the first two are still live when the third
// is re-admitted; a session that finished first would free its slot.
func TestRecoverRespectsMaxSessions(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, []journal.Record{
		submitRecord(t, 1, 1), submitRecord(t, 2, 1), submitRecord(t, 3, 1),
	})
	gate := make(chan struct{})
	s, rep, err := Recover(dir, journal.Options{}, Config{Workers: 1, MaxSessions: 2, Factory: gateFactory{gate: gate}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		s.Drain()
		s.Journal().Close()
	}()
	if len(rep.Sessions) != 2 || rep.Skipped != 1 {
		t.Fatalf("report %+v, want 2 recovered + 1 skipped at MaxSessions=2", rep)
	}
}

// TestRecoverRejectsConfiguredJournal: Recover owns the journal.
func TestRecoverRejectsConfiguredJournal(t *testing.T) {
	j, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, _, err := Recover(t.TempDir(), journal.Options{}, Config{Journal: j}); err == nil {
		t.Fatal("Recover accepted a pre-configured journal")
	}
}

// TestRecoverSecondCrashFoldsTheSame: the compaction inside Recover
// must leave a journal that folds to the same fleet if the daemon dies
// again immediately (no old-generation records shadowing new ones).
func TestRecoverSecondCrashFoldsTheSame(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, []journal.Record{
		submitRecord(t, 1, 50),
		submitRecord(t, 2, 50),
		{Kind: journal.KindTerminal, ID: 2, State: uint8(StateDone)},
	})
	s, rep, err := Recover(dir, journal.Options{}, Config{Workers: 1, Factory: slowFactory{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sessions) != 1 || rep.Sessions[0] != 1 {
		t.Fatalf("first recovery: %+v", rep)
	}
	// Die again at a round boundary, long before the session finishes.
	s.Stop()
	s.Journal().Close()

	s2, rep2, err := Recover(dir, journal.Options{}, Config{Workers: 1, Factory: fakeFactory{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s2.Drain()
		s2.Journal().Close()
	}()
	if len(rep2.Sessions) != 1 || rep2.Sessions[0] != 1 {
		t.Fatalf("second recovery diverged: %+v", rep2)
	}
	if id, err := s2.Submit(SessionSpec{MaxRounds: 1}); err != nil || id != 3 {
		t.Fatalf("id after double recovery = %d (%v), want 3", id, err)
	}
	s2.Quiesce()
}
