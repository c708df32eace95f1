// Package slices is a hermetic stand-in for the real slices package.
package slices

func BinarySearch[S ~[]E, E comparable](x S, target E) (int, bool) { return 0, false }

func Insert[S ~[]E, E any](s S, i int, v ...E) S { return s }

func Delete[S ~[]E, E any](s S, i, j int) S { return s }

func Clone[S ~[]E, E any](s S) S { return s }

func Concat[S ~[]E, E any](slices ...S) S { return nil }

func Grow[S ~[]E, E any](s S, n int) S { return s }
