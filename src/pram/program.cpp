#include "pram/program.h"

#include <algorithm>
#include <new>
#include <sstream>
#include <utility>

namespace apex::pram {

namespace {

// Epoch-tagged use marks: mark[var] == epoch means "already used this
// step".  Reused across steps without clearing, which keeps validation
// O(total instruction operands) instead of O(nsteps * nvars) -- the
// difference between milliseconds and minutes at graph scale.
void bump_or_throw(std::vector<std::uint32_t>& marks, std::uint32_t epoch,
                   std::uint32_t var, std::size_t nvars, std::size_t step,
                   const char* what) {
  if (var >= nvars)
    throw std::invalid_argument("PRAM step " + std::to_string(step) + ": " +
                                what + " variable v" + std::to_string(var) +
                                " out of range (nvars=" +
                                std::to_string(nvars) + ")");
  if (marks[var] == epoch)
    throw std::invalid_argument("PRAM step " + std::to_string(step) +
                                ": EREW violation, variable v" +
                                std::to_string(var) + " " + what +
                                " by more than one thread");
  marks[var] = epoch;
}

}  // namespace

void Program::validate_erew(std::size_t nthreads, std::size_t nvars,
                            const std::vector<Step>& steps) {
  std::vector<std::uint32_t> reads(nvars, 0), writes(nvars, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> segs;  // (base, len)
  std::vector<std::uint32_t> written;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const Step& st = steps[s];
    if (st.instrs.size() != nthreads)
      throw std::invalid_argument("PRAM step " + std::to_string(s) +
                                  ": instruction count != nthreads");
    const std::uint32_t epoch = static_cast<std::uint32_t>(s) + 1;
    segs.clear();
    written.clear();
    for (const Instr& ins : st.instrs) {
      const int r = reads_of(ins.op);
      if (r >= 1) bump_or_throw(reads, epoch, ins.x, nvars, s, "read");
      if (r >= 2) bump_or_throw(reads, epoch, ins.y, nvars, s, "read");
      if (r >= 3) bump_or_throw(reads, epoch, ins.c, nvars, s, "read");
      if (reads_window(ins.op)) {
        // The whole declared window counts as read: at run time exactly one
        // cell is, but which one is data-dependent, so exclusivity must be
        // guaranteed for every possible index.
        if (ins.c == 0)
          throw std::invalid_argument("PRAM step " + std::to_string(s) +
                                      ": gather window length is 0");
        if (static_cast<std::uint64_t>(ins.y) + ins.c > nvars)
          throw std::invalid_argument(
              "PRAM step " + std::to_string(s) + ": gather window [v" +
              std::to_string(ins.y) + ", v" +
              std::to_string(static_cast<std::uint64_t>(ins.y) + ins.c) +
              ") exceeds nvars=" + std::to_string(nvars));
        for (std::uint32_t v = ins.y; v < ins.y + ins.c; ++v)
          bump_or_throw(reads, epoch, v, nvars, s, "read");
      }
      if (reads_dyn_window(ins.op)) {
        // Segment reads are CREW (pure loads of frozen data; see ir.h), so
        // they don't bump the read marks -- but the segment itself must be
        // well-formed, and no thread may WRITE into any declared segment
        // this step (checked against `written` once the step is scanned).
        const std::uint32_t base = dyn_seg_base(ins);
        const std::uint32_t len = dyn_seg_len(ins);
        if (len == 0)
          throw std::invalid_argument("PRAM step " + std::to_string(s) +
                                      ": gather_dyn segment length is 0");
        if (static_cast<std::uint64_t>(base) + len > nvars)
          throw std::invalid_argument(
              "PRAM step " + std::to_string(s) + ": gather_dyn segment [v" +
              std::to_string(base) + ", v" +
              std::to_string(static_cast<std::uint64_t>(base) + len) +
              ") exceeds nvars=" + std::to_string(nvars));
        const auto seg = std::make_pair(base, len);
        if (std::find(segs.begin(), segs.end(), seg) == segs.end())
          segs.push_back(seg);
      }
      if (writes_dest(ins.op)) {
        bump_or_throw(writes, epoch, ins.z, nvars, s, "written");
        written.push_back(ins.z);
      }
    }
    // No same-step write may land inside a declared gather_dyn segment:
    // dynamic window reads are only safe because segment data is frozen
    // while the step runs.
    for (const auto& [base, len] : segs)
      for (std::uint32_t z : written)
        if (z >= base && z - base < len)
          throw std::invalid_argument(
              "PRAM step " + std::to_string(s) + ": variable v" +
              std::to_string(z) + " written inside gather_dyn segment [v" +
              std::to_string(base) + ", v" +
              std::to_string(static_cast<std::uint64_t>(base) + len) + ")");
    // Reading and writing the same variable within one step is legal: the
    // split Compute/Copy execution (paper §2.1, Fig. 1) orders every read
    // of a step before every write, so x <- f(x, y) and simultaneous-swap
    // patterns are well-defined.
  }
}

Program::Program(std::size_t nthreads, std::size_t nvars,
                 std::vector<Step> steps)
    : nthreads_(nthreads), nvars_(nvars), steps_(std::move(steps)) {
  if (nthreads_ == 0) throw std::invalid_argument("Program: nthreads == 0");
  if (nvars_ == 0) throw std::invalid_argument("Program: nvars == 0");
  validate_erew(nthreads_, nvars_, steps_);
  for (const auto& st : steps_)
    for (const auto& ins : st.instrs) {
      nondet_ |= pram::is_nondeterministic(ins.op);
      has_dyn_gather_ |= reads_dyn_window(ins.op);
    }
  build_writer_tables();
}

void Program::build_writer_tables() {
  // Pass 1: per-variable write counts -> CSR offsets for the sparse
  // last-writer index.  (A dense [step][var] snapshot table would be
  // O(nsteps * nvars) -- gigabytes at graph scale.)
  write_offsets_.assign(nvars_ + 1, 0);
  for (const Step& st : steps_)
    for (const Instr& ins : st.instrs)
      if (writes_dest(ins.op)) ++write_offsets_[ins.z + 1];
  for (std::size_t v = 0; v < nvars_; ++v)
    write_offsets_[v + 1] += write_offsets_[v];
  write_steps_.resize(write_offsets_[nvars_]);
  std::vector<std::uint32_t> cursor(write_offsets_.begin(),
                                    write_offsets_.end() - 1);

  // Pass 2: fill the per-variable write-step lists (sorted ascending by
  // construction) and the dense per-slot operand-provenance table, using
  // a transient last-writer array scanned forward through the steps.
  std::vector<std::uint32_t> last(nvars_, kInitial);
  writers_.resize(steps_.size());
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    writers_[s].resize(nthreads_);
    const Step& st = steps_[s];
    for (std::size_t t = 0; t < nthreads_; ++t) {
      const Instr& ins = st.instrs[t];
      OperandWriters w;
      const int r = reads_of(ins.op);
      if (r >= 1) w.x = last[ins.x];
      if (r >= 2) w.y = last[ins.y];
      if (r >= 3) w.c = last[ins.c];
      writers_[s][t] = w;
    }
    for (std::size_t t = 0; t < nthreads_; ++t) {
      const Instr& ins = st.instrs[t];
      if (writes_dest(ins.op)) {
        last[ins.z] = static_cast<std::uint32_t>(s);
        write_steps_[cursor[ins.z]++] = static_cast<std::uint32_t>(s);
      }
    }
  }
}

std::uint32_t Program::last_writer_before(std::size_t s,
                                          std::uint32_t var) const {
  if (var >= nvars_)
    throw std::out_of_range("last_writer_before: variable out of range");
  const std::uint32_t* first = write_steps_.data() + write_offsets_[var];
  const std::uint32_t* last = write_steps_.data() + write_offsets_[var + 1];
  // Largest write step strictly below s (the lists are sorted ascending).
  const std::uint32_t* it =
      std::lower_bound(first, last, static_cast<std::uint32_t>(s));
  return it == first ? kInitial : *(it - 1);
}

std::string Program::to_string() const {
  std::ostringstream os;
  os << "PRAM program: " << nthreads_ << " threads, " << nvars_ << " vars, "
     << steps_.size() << " steps\n";
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    os << " step " << s << ":\n";
    for (std::size_t t = 0; t < nthreads_; ++t) {
      const Instr& ins = steps_[s].instrs[t];
      if (ins.op == OpCode::kNop) continue;
      os << "   T" << t << ": " << ins.to_string() << '\n';
    }
  }
  // A stringbuf that cannot grow sets badbit and drops the rest of the
  // text; a truncated dump must not pass for the program.
  if (!os) throw std::bad_alloc();
  return os.str();
}

ProgramBuilder::StepBuilder& ProgramBuilder::StepBuilder::thread(std::size_t t,
                                                                 Instr ins) {
  if (t >= parent_->nthreads_)
    throw std::invalid_argument("ProgramBuilder: thread index out of range");
  parent_->steps_.at(index_).instrs.at(t) = ins;
  return *this;
}

ProgramBuilder::StepBuilder ProgramBuilder::step() {
  steps_.emplace_back();
  steps_.back().instrs.assign(nthreads_, Instr::nop());
  return StepBuilder(*this, steps_.size() - 1);
}

Program ProgramBuilder::build() {
  return Program(nthreads_, nvars_, std::move(steps_));
}

}  // namespace apex::pram
