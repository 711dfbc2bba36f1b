package flight

// HeaderWords is a record header's length in words, for the word-count gate.
const HeaderWords = hdrWords

// ArenaWords reports how many words of src's ring the records occupy and
// how long its arena is, for the word-count gate.
func (r *Recorder) ArenaWords(src Source) (used, size int) {
	rg := &r.rings[src]
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.used, len(rg.arena)
}
