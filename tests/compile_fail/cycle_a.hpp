#pragma once
// Include cycle, first half: cycle_a.hpp -> cycle_b.hpp -> cycle_a.hpp, and
// both edges are used.  Whichever header a TU includes first sees the
// other's body before its own, so one of the two header_check TUs fails
// with an incomplete type.
#include "cycle_b.hpp"

struct CycleA {
  int value = 0;
};

inline int next_value(const CycleB& b) { return b.a.value + 1; }
