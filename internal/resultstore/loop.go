package resultstore

import (
	"context"
	"time"
)

// loop is the background ticker behind Scrubber and Replicator: it runs
// fn once per interval, the first time one interval after start, until
// stop.
type loop struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// start launches the loop; it is a no-op while the loop runs.
func (l *loop) start(interval time.Duration, fn func(context.Context)) {
	if l.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn(ctx)
			}
		}
	}()
}

// pace is the rate limit and cancellation point before each transfer or
// check of a background round: it waits gap (none when gap <= 0) and
// reports whether ctx is still live.
func pace(ctx context.Context, gap time.Duration) bool {
	if gap > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(gap):
		}
	}
	return ctx.Err() == nil
}

// stop cancels the loop, including a run of fn in progress through its
// context, and waits for it to exit. Safe without start, and more than
// once.
func (l *loop) stop() {
	if l.cancel == nil {
		return
	}
	l.cancel()
	<-l.done
	l.cancel = nil
}
