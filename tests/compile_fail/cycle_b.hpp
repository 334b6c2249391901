#pragma once
// Include cycle, second half (see cycle_a.hpp).  The forward declaration
// does not help: a by-value member needs the complete type.
#include "cycle_a.hpp"

struct CycleA;

struct CycleB {
  CycleA a;
};
