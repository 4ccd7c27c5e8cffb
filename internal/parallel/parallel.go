// Package parallel provides a small bounded fork/join helper; the label
// server's boot recovery uses it to restore documents concurrently.
//
// The helpers are deliberately minimal: callers pass a half-open range
// [0, n) and a shard function; MapShards splits the range into at most
// `workers` contiguous shards and runs them concurrently, returning the
// per-shard results in shard order. Because shards are contiguous and
// results are concatenated in order, a caller whose input is sorted gets
// sorted output back without any merge step.
package parallel

import (
	"runtime"
	"sync"
)

// Workers resolves a requested parallelism level to a concrete worker
// count: values <= 0 mean "auto" (GOMAXPROCS), anything else is used as
// given. The result is always >= 1.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// MapShards splits [0, n) into at most `workers` contiguous shards of at
// least minGrain items each and runs fn(lo, hi) for every shard,
// returning the per-shard results in shard order (shard 0 first). When
// the range is small enough for a single shard — or workers <= 1 — fn
// runs inline on the calling goroutine and no goroutines are spawned.
//
// fn must be safe to call concurrently from multiple goroutines.
func MapShards[T any](workers, n, minGrain int, fn func(lo, hi int) T) []T {
	if n <= 0 {
		return nil
	}
	if minGrain < 1 {
		minGrain = 1
	}
	shards := workers
	if maxShards := n / minGrain; shards > maxShards {
		shards = maxShards
	}
	if shards <= 1 {
		return []T{fn(0, n)}
	}
	out := make([]T, shards)
	var wg sync.WaitGroup
	wg.Add(shards - 1)
	for i := 1; i < shards; i++ {
		go func(i int) {
			defer wg.Done()
			lo, hi := shardBounds(i, shards, n)
			out[i] = fn(lo, hi)
		}(i)
	}
	lo, hi := shardBounds(0, shards, n)
	out[0] = fn(lo, hi)
	wg.Wait()
	return out
}

// shardBounds returns the half-open range covered by shard i of `shards`
// over [0, n), distributing the remainder one item at a time over the
// leading shards so sizes differ by at most one.
func shardBounds(i, shards, n int) (lo, hi int) {
	size, rem := n/shards, n%shards
	lo = i*size + min(i, rem)
	hi = lo + size
	if i < rem {
		hi++
	}
	return lo, hi
}
