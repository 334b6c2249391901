// The header_check TU of cycle_a.hpp: must fail with "incomplete type".
#include "cycle_a.hpp"
