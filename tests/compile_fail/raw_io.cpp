// raw-io: host file I/O behind fsim's back.  Built like every src/, bench/
// and examples/ source (util/no_raw_io.hpp force-included), this must fail
// with: attempt to use poisoned "ofstream".
#include <string>

void dump(const std::string& text) {
  std::ofstream out("dump.txt");
  out << text;
}
