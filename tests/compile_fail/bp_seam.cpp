// bp seam: outside src/bp every library is built with BITIO_BP_SEAM_ONLY,
// so including a writer internal must fail with the header's #error
// ("bp-internal header").
#include "bp/writer.hpp"
