// submit-reap: SubmissionQueue::submit() returns the batch's completions;
// ignoring them drops every per-sqe fault.  Must fail with: ignoring return
// value of ... SubmissionQueue::submit.
#include "fsim/posix_fs.hpp"

void flush(bitio::fsim::SubmissionQueue& sq) { sq.submit(); }
