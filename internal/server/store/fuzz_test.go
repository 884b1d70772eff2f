package store

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// realJournal writes a multi-record journal through the store itself: a job
// from submit to result, and a streaming session from open to close.
func realJournal(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	ctx := context.Background()
	s, _, err := Open(ctx, dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	pairs := map[string]string{"A": "X", "B": "Y"}
	for _, err := range []error{
		s.AppendSubmit(ctx, "j1", testSpec(), 1),
		s.AppendState(ctx, "j1", "running", "", 2),
		s.AppendCheckpoint(ctx, "j1", &CheckpointRecord{Pairs: pairs, Score: 0.5, Expanded: 3}, 3),
		s.AppendResult(ctx, "j1", "deadbeef", 4),
		s.AppendState(ctx, "j1", "done", "", 5),
		s.AppendSubmit(ctx, "j2", testSpec(), 6),
		s.AppendSessionOpen(ctx, "s1", &SessionRecord{Algorithm: "exact", Log1: testSpec().Log1, Tenant: "alpha"}, 7),
		s.AppendSessionDelta(ctx, "s1", []string{"X Y", "Y X"}, 8),
		s.AppendSessionClose(ctx, "s1", "closed", &SessionFinalRecord{Revision: 2, Pairs: pairs, Score: 1}, 9),
		s.Close(),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzReplay feeds the boot-time journal decoder arbitrary and torn bytes.
// replay must never panic, its well-formed prefix must lie inside the input,
// and replaying exactly that prefix must be clean (no torn record) and
// reconstruct the same jobs and sessions — the invariant Open relies on when
// it truncates a torn tail.
func FuzzReplay(f *testing.F) {
	data := realJournal(f)
	f.Add(data)
	f.Add(data[:len(data)-7])       // cut mid-record
	f.Add(append(data[:0:0], '\n')) // a lone newline
	f.Add([]byte("00000000 {}\n"))  // bad CRC
	f.Add(append(append([]byte{}, data...), "garbage"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := replay(data)
		if rec.goodPrefix < 0 || rec.goodPrefix > len(data) {
			t.Fatalf("goodPrefix %d outside [0, %d]", rec.goodPrefix, len(data))
		}
		again := replay(data[:rec.goodPrefix])
		if again.Torn != 0 {
			t.Fatalf("replaying the good prefix found %d torn records", again.Torn)
		}
		if !reflect.DeepEqual(again.Jobs, rec.Jobs) || !reflect.DeepEqual(again.Sessions, rec.Sessions) {
			t.Fatalf("good prefix recovers different state:\n%+v %+v\nvs\n%+v %+v",
				again.Jobs, again.Sessions, rec.Jobs, rec.Sessions)
		}
		if again.Records != rec.Records || again.Skipped != rec.Skipped ||
			again.MaxJobSeq != rec.MaxJobSeq || again.MaxSessionSeq != rec.MaxSessionSeq {
			t.Fatalf("good prefix replays different accounting: %+v vs %+v", again, rec)
		}
	})
}
