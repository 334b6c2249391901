#pragma once
// Common exception hierarchy for the bitio library.
//
// Every module throws a subclass of bitio::Error so callers can catch the
// library's failures without also swallowing unrelated std::runtime_error.

#include <stdexcept>
#include <string>

namespace bitio {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed input data (corrupt container, bad config syntax, ...).
class FormatError : public Error {
public:
  explicit FormatError(const std::string& what) : Error(what) {}
};

/// A request that is valid syntax but impossible to satisfy
/// (unknown codec name, write to read-only series, offset out of range, ...).
class UsageError : public Error {
public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

/// File-system level failure from the simulated storage stack
/// (no such file, writing through a closed descriptor, quota, ...).
class IoError : public Error {
public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// An operation that cannot complete in time: a write that hit an injected
/// stall (an unresponsive OST), or a drain step abandoned after bounded
/// retries.
class TimeoutError : public Error {
public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

}  // namespace bitio
