package persist

import (
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"
)

var errInjectedFsync = errors.New("injected fsync failure")

// TestCommitFsyncFailureIsSticky: the first fsync fails and every later one
// would succeed. A follower whose frame the failed fsync was meant to cover
// must not become leader, fsync again and report its frame durable — the
// kernel may have dropped the pages the first fsync could not write.
func TestCommitFsyncFailureIsSticky(t *testing.T) {
	m := openManager(t)
	j, err := m.CreateJournal("books")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ctx := context.Background()
	first, err := j.Append(ctx, Record{Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	second, err := j.Append(ctx, Record{Gen: 2})
	if err != nil {
		t.Fatal(err)
	}

	var syncs atomic.Int32
	inFirst, release := make(chan struct{}), make(chan struct{})
	j.syncFile = func(f *os.File) error {
		if syncs.Add(1) == 1 {
			close(inFirst)
			<-release
			return errInjectedFsync
		}
		return f.Sync()
	}
	leader := make(chan error, 1)
	go func() {
		_, err := j.Commit(ctx, first.Seq)
		leader <- err
	}()
	<-inFirst
	// The follower either parks behind the in-flight fsync or arrives after
	// it failed; both must fail.
	follower := make(chan error, 1)
	go func() {
		_, err := j.Commit(ctx, second.Seq)
		follower <- err
	}()
	close(release)
	if err := <-leader; !errors.Is(err, ErrFsyncFailed) || !errors.Is(err, errInjectedFsync) {
		t.Fatalf("leader Commit = %v, want ErrFsyncFailed wrapping the injected error", err)
	}
	if err := <-follower; !errors.Is(err, ErrFsyncFailed) {
		t.Fatalf("follower Commit after a failed fsync = %v, want the sticky ErrFsyncFailed", err)
	}
	if _, err := j.Commit(ctx, first.Seq); !errors.Is(err, ErrFsyncFailed) {
		t.Errorf("retried Commit = %v, want the sticky ErrFsyncFailed", err)
	}
	if _, err := j.Append(ctx, Record{Gen: 3}); !errors.Is(err, ErrFsyncFailed) {
		t.Errorf("Append after a failed fsync = %v, want the sticky ErrFsyncFailed", err)
	}
	if n := syncs.Load(); n != 1 {
		t.Errorf("journal fsynced %d times, want 1: nothing may retry after a failure", n)
	}
}

// TestCommitCoveredBeforeFailureStaysCommitted: a frame a successful fsync
// covered stays durable after a later fsync fails.
func TestCommitCoveredBeforeFailureStaysCommitted(t *testing.T) {
	m := openManager(t)
	j, err := m.CreateJournal("books")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ctx := context.Background()
	first, err := j.Append(ctx, Record{Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Commit(ctx, first.Seq); err != nil {
		t.Fatal(err)
	}
	second, err := j.Append(ctx, Record{Gen: 2})
	if err != nil {
		t.Fatal(err)
	}
	j.syncFile = func(*os.File) error { return errInjectedFsync }
	if _, err := j.Commit(ctx, second.Seq); !errors.Is(err, ErrFsyncFailed) {
		t.Fatalf("Commit = %v, want ErrFsyncFailed", err)
	}
	if _, err := j.Commit(ctx, first.Seq); err != nil {
		t.Errorf("Commit of a frame synced before the failure = %v, want nil", err)
	}
}

// TestResetFsyncFailureReleasesNothing: a Reset whose own fsync fails must
// not release pending commits as satisfied, and poisons the journal.
func TestResetFsyncFailureReleasesNothing(t *testing.T) {
	m := openManager(t)
	j, err := m.CreateJournal("books")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ctx := context.Background()
	pending, err := j.Append(ctx, Record{Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	j.syncFile = func(*os.File) error { return errInjectedFsync }
	epoch := j.Epoch()
	if err := j.Reset(); !errors.Is(err, ErrFsyncFailed) {
		t.Fatalf("Reset = %v, want ErrFsyncFailed", err)
	}
	if j.Epoch() == epoch {
		t.Error("Reset truncated the file without bumping the epoch")
	}
	j.syncFile = (*os.File).Sync
	if _, err := j.Commit(ctx, pending.Seq); !errors.Is(err, ErrFsyncFailed) {
		t.Errorf("Commit after a failed Reset fsync = %v, want ErrFsyncFailed", err)
	}
	if _, err := j.Append(ctx, Record{Gen: 2}); !errors.Is(err, ErrFsyncFailed) {
		t.Errorf("Append after a failed Reset fsync = %v, want ErrFsyncFailed", err)
	}
}
