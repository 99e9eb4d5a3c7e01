package main

import (
	"bufio"
	"fmt"
	"hash/maphash"
	"os"
	"sync"
)

// answerLog keeps served answers out of the process's memory during the
// timed loop, so peak RSS measures the system and not the benchmark's
// record of it. Each distinct answer is appended once to a file; a repeat
// of a fingerprint key is compared with the first answer by hash, and a
// mismatch is a failed check. Answers without a key are all distinct.
type answerLog struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	off      int64
	byKey    map[string]int
	entries  []logEntry
	seed     maphash.Seed
	mismatch []string
	err      error
}

type logEntry struct {
	off  int64
	n    int
	hash uint64
}

func newAnswerLog(path string) (*answerLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &answerLog{f: f, w: bufio.NewWriterSize(f, 1<<20), byKey: map[string]int{}, seed: maphash.MakeSeed()}, nil
}

// add records one op's answers and returns their entry ids.
func (l *answerLog) add(keys []string, answers [][]byte) []int32 {
	ids := make([]int32, len(answers))
	l.mu.Lock()
	defer l.mu.Unlock()
	for j, a := range answers {
		h := maphash.Bytes(l.seed, a)
		key := ""
		if j < len(keys) {
			key = keys[j]
		}
		if id, ok := l.byKey[key]; ok && key != "" {
			if l.entries[id].hash != h {
				l.mismatch = append(l.mismatch, key)
			}
			ids[j] = int32(id)
			continue
		}
		if _, err := l.w.Write(a); err != nil && l.err == nil {
			l.err = err
		}
		l.entries = append(l.entries, logEntry{off: l.off, n: len(a), hash: h})
		l.off += int64(len(a))
		ids[j] = int32(len(l.entries) - 1)
		if key != "" {
			l.byKey[key] = int(ids[j])
		}
	}
	return ids
}

// load flushes the log and reads every distinct answer back.
func (l *answerLog) load() ([][]byte, error) {
	if l.err != nil {
		return nil, l.err
	}
	if err := l.w.Flush(); err != nil {
		return nil, err
	}
	data := make([]byte, l.off)
	if _, err := l.f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("reading answer log: %w", err)
	}
	out := make([][]byte, len(l.entries))
	for i, e := range l.entries {
		out[i] = data[e.off : e.off+int64(e.n) : e.off+int64(e.n)]
	}
	return out, nil
}

// close removes the log file.
func (l *answerLog) close() {
	l.f.Close()
	os.Remove(l.f.Name())
}
