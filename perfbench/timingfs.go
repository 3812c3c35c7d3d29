package main

import (
	"os"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// timingFS wraps a store.FS and counts and times what passes through
// it, without changing a single argument or result, with one exception:
// it skips the flush (see timingFile.Sync). The store layer's per-layer
// ledger (reads, writes, bytes, errors) is measured here, at the seam
// the store already exposes.
type timingFS struct {
	inner store.FS

	reads, writes, errs   atomic.Int64
	readNS, writeNS       atomic.Int64
	readBytes, writeBytes atomic.Int64
}

func newTimingFS(inner store.FS) *timingFS { return &timingFS{inner: inner} }

// fsStats is a snapshot of a timingFS's counters.
type fsStats struct {
	Reads, Writes, Errors int64
	ReadTime, WriteTime   time.Duration
	ReadBytes, WriteBytes int64
}

func (f *timingFS) Stats() fsStats {
	return fsStats{
		Reads: f.reads.Load(), Writes: f.writes.Load(), Errors: f.errs.Load(),
		ReadTime: time.Duration(f.readNS.Load()), WriteTime: time.Duration(f.writeNS.Load()),
		ReadBytes: f.readBytes.Load(), WriteBytes: f.writeBytes.Load(),
	}
}

func (f *timingFS) count(err error) {
	if err != nil {
		f.errs.Add(1)
	}
}

func (f *timingFS) MkdirAll(dir string, perm os.FileMode) error {
	err := f.inner.MkdirAll(dir, perm)
	f.count(err)
	return err
}

// ReadFile is a store read. A missing entry (the store's plain miss) is
// a read, not an error.
func (f *timingFS) ReadFile(name string) ([]byte, error) {
	t0 := time.Now()
	data, err := f.inner.ReadFile(name)
	f.readNS.Add(int64(time.Since(t0)))
	f.reads.Add(1)
	f.readBytes.Add(int64(len(data)))
	if err != nil && !os.IsNotExist(err) {
		f.errs.Add(1)
	}
	return data, err
}

// CreateTemp opens the temp file of one atomic write; the write's time
// runs from here through Close, plus the committing Rename.
func (f *timingFS) CreateTemp(dir, pattern string) (store.File, error) {
	t0 := time.Now()
	file, err := f.inner.CreateTemp(dir, pattern)
	f.writeNS.Add(int64(time.Since(t0)))
	f.count(err)
	if err != nil {
		return nil, err
	}
	f.writes.Add(1)
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := f.inner.Rename(oldpath, newpath)
	f.writeNS.Add(int64(time.Since(t0)))
	f.count(err)
	return err
}

// Remove is not counted as a write; removing an already-renamed temp
// file (the store's cleanup after every successful write) is not an
// error either.
func (f *timingFS) Remove(name string) error {
	err := f.inner.Remove(name)
	if err != nil && !os.IsNotExist(err) {
		f.errs.Add(1)
	}
	return err
}

func (f *timingFS) Stat(name string) (os.FileInfo, error) {
	fi, err := f.inner.Stat(name)
	if err != nil && !os.IsNotExist(err) {
		f.errs.Add(1)
	}
	return fi, err
}

type timingFile struct {
	store.File
	fs *timingFS
}

func (t *timingFile) timed(fn func() error) error {
	t0 := time.Now()
	err := fn()
	t.fs.writeNS.Add(int64(time.Since(t0)))
	t.fs.count(err)
	return err
}

func (t *timingFile) Write(p []byte) (int, error) {
	var n int
	err := t.timed(func() (err error) { n, err = t.File.Write(p); return err })
	t.fs.writeBytes.Add(int64(n))
	return n, err
}

// Sync skips the flush and reports success. How long a flush takes is
// the host disk's business, not the program's: on a shared virtual disk
// it ranges from a fraction of a millisecond to several, from one
// minute to the next, and with a flush for every one of the roughly 280
// entries a serve-mixed pass writes, that swings wall_s by more than its
// bound. The store still creates, writes, closes and renames every
// entry; only durability against a host crash is lost, and each phase's
// store is deleted when the phase ends.
func (t *timingFile) Sync() error { return nil }

func (t *timingFile) Close() error { return t.timed(t.File.Close) }
