package core

// DrainFreePrograms empties name's free list, so that the next job of
// name builds every instance from its factory.
func DrainFreePrograms(name string) {
	freePrograms.Lock()
	defer freePrograms.Unlock()
	delete(freePrograms.m, name)
}
