#pragma once
// Raw file I/O is poisoned in every src/, bench/ and examples/ target: the
// build force-includes this header (-include, see src/CMakeLists.txt), so a
// call that reaches the host file system behind fsim's back is a compile
// error ("attempt to use poisoned ...") instead of a silent hole in the
// traced byte counts.  All file I/O goes through fsim::FsClient, whose ops
// the replay times and Darshan counts.
//
// The standard headers that declare or use these names are included first,
// so the library's own declarations are not themselves poisoned.  fprintf
// stays usable for stderr logging: every call that could yield another
// FILE* (fopen, fdopen, freopen, popen, tmpfile) is poisoned, so it can
// only reach the standard streams.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#pragma GCC poison fopen fdopen freopen popen tmpfile fwrite fread fscanf fputs ofstream ifstream fstream filesystem
