package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/store"
)

// TestTimingFSPassesThrough drives every FS method through the wrapper
// and the bare OS filesystem side by side: same results, same errors,
// same bytes on disk.
func TestTimingFSPassesThrough(t *testing.T) {
	plain, timed := t.TempDir(), t.TempDir()
	tfs := newTimingFS(store.OSFS())
	fss := []struct {
		fs  store.FS
		dir string
	}{{store.OSFS(), plain}, {tfs, timed}}
	type outcome struct {
		Data  []byte
		Err   string
		Size  int64
		IsDir bool
	}
	run := func(fs store.FS, dir string) []outcome {
		var out []outcome
		rec := func(data []byte, err error) {
			o := outcome{Data: data}
			if err != nil {
				o.Err = errors.Unwrap(err).Error() // strip the path, which differs
			}
			out = append(out, o)
		}
		rec(nil, fs.MkdirAll(filepath.Join(dir, "a", "b"), 0o755))
		f, err := fs.CreateTemp(filepath.Join(dir, "a"), "tmp-*")
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.Write([]byte("payload"))
		rec([]byte{byte(n)}, err)
		rec(nil, f.Sync())
		rec(nil, f.Close())
		rec(nil, fs.Rename(f.Name(), filepath.Join(dir, "a", "entry")))
		rec(fs.ReadFile(filepath.Join(dir, "a", "entry")))
		rec(fs.ReadFile(filepath.Join(dir, "a", "missing")))
		fi, err := fs.Stat(filepath.Join(dir, "a", "entry"))
		o := outcome{}
		if err == nil {
			o.Size, o.IsDir = fi.Size(), fi.IsDir()
		}
		out = append(out, o)
		_, err = fs.Stat(filepath.Join(dir, "nope"))
		rec(nil, err)
		rec(nil, fs.Remove(f.Name())) // already renamed: not-exist
		rec(nil, fs.Remove(filepath.Join(dir, "a", "entry")))
		return out
	}
	a, b := run(fss[0].fs, fss[0].dir), run(fss[1].fs, fss[1].dir)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("wrapper changed results:\nplain %+v\ntimed %+v", a, b)
	}
	st := tfs.Stats()
	if st.Reads != 2 || st.Writes != 1 || st.WriteBytes != 7 || st.ReadBytes != 7 || st.Errors != 0 {
		t.Errorf("counters %+v, want 2 reads, 1 write of 7 bytes, 7 bytes read, no errors", st)
	}
}

// TestTimingFSStoreRoundTrip runs the store over the wrapper and over
// the OS filesystem: identical entries on disk and identical reads.
func TestTimingFSStoreRoundTrip(t *testing.T) {
	plain, timed := t.TempDir(), t.TempDir()
	tfs := newTimingFS(store.OSFS())
	sp, err := store.OpenFS(plain, store.OSFS())
	if err != nil {
		t.Fatal(err)
	}
	stt, err := store.OpenFS(timed, tfs)
	if err != nil {
		t.Fatal(err)
	}
	k := store.CountKey("mcf", 1, "0123456789abcdef")
	for _, s := range []*store.Store{sp, stt} {
		if err := s.Put(k, store.Count{Insts: 42}); err != nil {
			t.Fatal(err)
		}
	}
	var a, b store.Count
	if err := sp.Get(k, &a); err != nil {
		t.Fatal(err)
	}
	if err := stt.Get(k, &b); err != nil {
		t.Fatal(err)
	}
	if a != b || a.Insts != 42 {
		t.Fatalf("got %+v and %+v", a, b)
	}
	miss := store.CountKey("gcc", 1, "0123456789abcdef")
	ea, eb := sp.Get(miss, &a), stt.Get(miss, &b)
	if !errors.Is(ea, store.ErrNotFound) || !errors.Is(eb, store.ErrNotFound) {
		t.Fatalf("miss: %v vs %v", ea, eb)
	}
	la, err := sp.List()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := stt.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(la) != 1 || len(lb) != 1 || la[0].Key != lb[0].Key {
		t.Fatalf("lists differ: %+v vs %+v", la, lb)
	}
	da, err := os.ReadFile(la[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(lb[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("entry bytes differ")
	}
	if st := tfs.Stats(); st.Writes != 1 || st.Reads < 2 || st.Errors != 0 {
		t.Errorf("counters %+v", st)
	}
}
