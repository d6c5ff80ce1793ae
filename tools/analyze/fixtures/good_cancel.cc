// Known-good fixture for the no-cancel check, doubling as a raw-string
// lexer trap: the literal inside Handle contains an unpolled hot loop that
// must never be tokenized as code. The second loop polls through the
// strided per-element poll, which also counts.
bool Cancelled();
int Score(int x);
void Log(const char* s);
struct StridedCancelPoll {
  bool StrideCancelled();
};

int Handle(int n) {
  // If raw strings leaked into the token stream, this would read as an
  // unpolled loop calling Score and the self-test would fail.
  Log(R"sql(for (int i = 0; i < n; ++i) { total += Score(i); })sql");
  int total = 0;
  for (int i = 0; i < n; ++i) {
    if (Cancelled()) return total;
    total += Score(i);
  }
  StridedCancelPoll poll;
  for (int i = 0; i < n; ++i) {
    if (poll.StrideCancelled()) return total;
    total += Score(i);
  }
  return total;
}
