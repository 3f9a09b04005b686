package main

import (
	"os"
	"testing"

	"histcube/internal/linetest"
)

// TestMain lets the binary drills build histserve once for the whole
// test binary.
func TestMain(m *testing.M) { os.Exit(linetest.Main(m)) }
