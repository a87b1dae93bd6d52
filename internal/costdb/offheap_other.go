//go:build !unix

package costdb

// mapAnon always fails where anonymous mappings are not available, so
// the table lives on the heap (see offheap_unix.go).
func mapAnon[T any](int) ([]T, []byte) { return nil, nil }

func unmapAnon([]byte) {}
