package server

import (
	"testing"

	"ssrec/internal/shardtest"
)

// TestMain fails the package when its tests leave goroutines running
// (shardtest.Main).
func TestMain(m *testing.M) { shardtest.Main(m) }
