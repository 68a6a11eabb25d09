package obs

import (
	"testing"

	"github.com/hinpriv/dehin/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
