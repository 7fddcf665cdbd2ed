#include "lang/compile.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <utility>

namespace apex::lang {

namespace {

constexpr std::uint64_t kMaxVarId = std::numeric_limits<std::uint32_t>::max();

/// Memory the analysis may commit to one table before it allocates:
/// bounds the lowered instruction slots (procs x steps Instrs plus their
/// source back-pointers) and the two per-variable EREW epoch arrays, so an
/// oversized declaration is a diagnostic rather than std::bad_alloc.  The
/// bfs rendering at n=1e5 (4096 procs x 1113 steps, 1.2M vars) needs 17%
/// of the slot limit and 1% of the variable limit.
constexpr std::uint64_t kMaxTableBytes = std::uint64_t{1} << 30;
constexpr std::uint64_t kSlotBytes = sizeof(pram::Instr) + sizeof(void*);
constexpr std::uint64_t kMaxSlots = kMaxTableBytes / kSlotBytes;
constexpr std::uint64_t kMaxVars = kMaxTableBytes / (2 * sizeof(std::uint32_t));

/// True for identifiers of the form v<digits> — raw variable indices.
bool is_raw_ref(std::string_view name) {
  if (name.size() < 2 || name[0] != 'v') return false;
  for (std::size_t i = 1; i < name.size(); ++i)
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return false;
  return true;
}

struct VarInfo {
  std::uint64_t base = 0;
  std::uint64_t count = 1;
};

struct SegInfo {
  std::uint32_t base = 0;
  std::uint32_t len = 0;
};

/// An upper bound on the steps in `text`: the '{' bytes.  Every step opens
/// with one, and a '{' that opens no step can only sit in a comment.
std::uint64_t max_steps(std::string_view text) {
  std::uint64_t n = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while ((p = static_cast<const char*>(std::memchr(p, '{', end - p)))) {
    ++n;
    ++p;
  }
  return n;
}

/// Lowers and EREW-checks one step at a time.  prepare() resolves the
/// declarations, the parser then hands each step to add_step as it closes,
/// and finish() builds the Program.
class Analyzer {
 public:
  explicit Analyzer(std::vector<Diagnostic>& diags) : diags_(diags) {}

  /// Layout, size limits and segments, from the declarations alone, for a
  /// program of `nsteps` steps.  False when a size limit is crossed: then
  /// nothing sized by the declarations may be allocated, and no step is
  /// lowered.
  bool prepare(const ProgramSrc& decls, std::uint64_t nsteps) {
    name_loc_ = decls.name_loc;
    resolve_layout(decls);
    if (!within_size_limits(decls, nsteps)) return false;
    resolve_segments(decls);
    placed_.assign(static_cast<std::size_t>(procs_), nullptr);
    reads_.assign(static_cast<std::size_t>(nvars_), 0);
    writes_.assign(static_cast<std::size_t>(nvars_), 0);
    return true;
  }

  /// Lower the next step into the program and EREW-check it.  The lanes
  /// die when this returns, so placed_ is cleared before it does.
  void add_step(const StepSrc& st) {
    pram::Step& step = steps_.emplace_back();
    step.instrs.assign(static_cast<std::size_t>(procs_), pram::Instr::nop());
    for (const LaneSrc& lane : st.lanes) {
      if (lane.lane >= procs_) {
        error(lane.lane_loc, "lane " + std::to_string(lane.lane) +
                                 " out of range (procs=" +
                                 std::to_string(procs_) + ")");
        continue;
      }
      if (placed_[lane.lane] != nullptr) {
        error(lane.lane_loc,
              "duplicate lane " + std::to_string(lane.lane) + " in step");
        continue;
      }
      const auto ins = lower(lane);
      if (!ins) continue;
      step.instrs[lane.lane] = *ins;
      placed_[lane.lane] = &lane;
    }
    // EREW findings count only when no other error fires anywhere in the
    // file, so they wait in erew_; after any other error they are moot.
    if (diags_.empty())
      check_erew(step, static_cast<std::uint32_t>(steps_.size()));
    std::fill(placed_.begin(), placed_.end(), nullptr);
  }

  /// The program, or nullopt with the diagnostics: the other errors if
  /// there are any, else the EREW errors in step order.
  std::optional<pram::Program> finish() {
    if (!diags_.empty()) return std::nullopt;
    diags_ = std::move(erew_);
    if (!diags_.empty()) return std::nullopt;
    // Our checks mirror Program's own validation, so this construction
    // cannot throw; the try is a backstop so a checker gap still surfaces
    // as a diagnostic rather than terminating the caller.
    try {
      return pram::Program(static_cast<std::size_t>(procs_),
                           static_cast<std::size_t>(nvars_),
                           std::move(steps_));
    } catch (const std::bad_alloc&) {
      throw;  // out of memory is the caller's to report, not a checker gap
    } catch (const std::exception& e) {
      diags_.push_back({name_loc_,
                        std::string("internal: program validation failed "
                                    "after analysis: ") +
                            e.what()});
      return std::nullopt;
    }
  }

 private:
  void error(const Loc& loc, std::string msg) {
    diags_.push_back({loc, std::move(msg)});
  }

  // ---- layout ----------------------------------------------------------

  void resolve_layout(const ProgramSrc& src) {
    if (!src.procs) {
      error(src.name_loc, "program declares no 'procs'");
      procs_ = 1;
    } else if (*src.procs == 0) {
      error(src.procs_loc, "'procs' must be at least 1");
      procs_ = 1;
    } else {
      procs_ = *src.procs;
    }
    // Named vars allocate sequentially starting at the declared `vars`
    // total (raw-index space first, names appended after), so a file can
    // freely mix `vars N` + raw refs with named declarations.
    std::uint64_t next = src.vars.value_or(0);
    if (next > kMaxVars) vars_limit_loc_ = src.vars_loc;
    for (const VarDeclSrc& d : src.var_decls) {
      if (is_raw_ref(d.name) || opcode_from_keyword(d.name) ||
          reserved(d.name)) {
        error(d.loc, "variable name '" + std::string(d.name) +
                         "' is reserved");
        continue;
      }
      if (names_.count(d.name)) {
        error(d.loc,
              "variable '" + std::string(d.name) + "' already declared");
        continue;
      }
      if (d.count == 0) {
        error(d.loc,
              "variable '" + std::string(d.name) + "' has array size 0");
        continue;
      }
      names_[d.name] = VarInfo{next, d.count};
      // Saturate rather than wrap, so huge sizes cannot sum back in range.
      next = d.count > UINT64_MAX - next ? UINT64_MAX : next + d.count;
      if (next > kMaxVars && !vars_limit_loc_) vars_limit_loc_ = d.loc;
    }
    nvars_ = next;
    if (nvars_ == 0) {
      error(src.name_loc, "program declares no variables");
      nvars_ = 1;
    }
    if (nvars_ > kMaxVarId + 1) {
      error(src.vars ? src.vars_loc : src.name_loc,
            "variable id overflow: program needs " + std::to_string(nvars_) +
                " variables but ids are 32-bit (max " +
                std::to_string(kMaxVarId + 1) + ")");
      nvars_ = 1;
    }
  }

  static bool reserved(std::string_view n) {
    return n == "pram" || n == "procs" || n == "vars" || n == "var" ||
           n == "segment" || n == "step";
  }

  /// Report declarations whose tables would exceed kMaxTableBytes; false
  /// stops the analysis before anything sized by them is allocated.
  bool within_size_limits(const ProgramSrc& src, std::uint64_t nsteps) {
    bool ok = true;
    if (nvars_ > kMaxVars) {
      error(*vars_limit_loc_,
            "program too large: " + std::to_string(nvars_) +
                " variables exceed the compiler's limit of " +
                std::to_string(kMaxVars));
      ok = false;
    }
    if (nsteps != 0 && procs_ > kMaxSlots / nsteps) {
      error(src.procs ? src.procs_loc : src.name_loc,
            "program too large: procs=" + std::to_string(procs_) + " x " +
                std::to_string(nsteps) +
                " steps exceeds the compiler's limit of " +
                std::to_string(kMaxSlots) + " instruction slots");
      ok = false;
    }
    return ok;
  }

  void resolve_segments(const ProgramSrc& src) {
    for (const SegDeclSrc& d : src.seg_decls) {
      const std::string name(d.name);
      if (segs_.count(d.name)) {
        error(d.loc, "segment '" + name + "' already declared");
        continue;
      }
      const auto base = resolve_ref(d.base);
      if (!base) continue;
      if (d.len == 0) {
        error(d.len_loc, "segment '" + name + "' has length 0");
        continue;
      }
      if (d.len > kMaxVarId) {
        error(d.len_loc, "segment '" + name + "' length overflows 32 bits");
        continue;
      }
      if (*base + d.len > nvars_) {
        error(d.loc, "segment '" + name + "' [v" + std::to_string(*base) +
                         ", v" + std::to_string(*base + d.len) +
                         ") exceeds vars=" + std::to_string(nvars_));
        continue;
      }
      segs_[d.name] = SegInfo{static_cast<std::uint32_t>(*base),
                              static_cast<std::uint32_t>(d.len)};
    }
  }

  /// Resolve a reference to a variable index, or nullopt after reporting.
  std::optional<std::uint64_t> resolve_ref(const Ref& r) {
    // Declarations may not take the raw v<digits> form, so a raw ref is
    // resolved from its spelling without consulting the name table.
    if (is_raw_ref(r.name)) return resolve_raw(r);
    auto it = names_.find(r.name);
    if (it == names_.end()) {
      error(r.loc, "undefined variable '" + std::string(r.name) + "'");
      return std::nullopt;
    }
    const VarInfo& info = it->second;
    std::uint64_t idx = info.base;
    if (r.has_subscript) {
      if (r.subscript >= info.count) {
        error(r.loc, "subscript " + std::to_string(r.subscript) +
                         " out of bounds for '" + std::string(r.name) +
                         "' (size " + std::to_string(info.count) + ")");
        return std::nullopt;
      }
      idx += r.subscript;
    }
    return idx;
  }

  std::optional<std::uint64_t> resolve_raw(const Ref& r) {
    std::uint64_t raw = 0;
    bool overflow = false;
    for (std::size_t i = 1; i < r.name.size(); ++i) {
      const std::uint64_t d = static_cast<std::uint64_t>(r.name[i] - '0');
      if (raw > (UINT64_MAX - d) / 10) overflow = true;
      if (!overflow) raw = raw * 10 + d;
    }
    if (r.has_subscript) {
      error(r.loc, "raw variable reference '" + std::string(r.name) +
                       "' cannot take a subscript");
      return std::nullopt;
    }
    if (overflow || raw > kMaxVarId) {
      error(r.loc,
            "variable id '" + std::string(r.name) + "' overflows 32 bits");
      return std::nullopt;
    }
    if (raw >= nvars_) {
      error(r.loc, "variable v" + std::to_string(raw) +
                       " out of range (vars=" + std::to_string(nvars_) + ")");
      return std::nullopt;
    }
    return raw;
  }

  // ---- codegen ---------------------------------------------------------

  std::optional<pram::Instr> lower(const LaneSrc& lane) {
    using pram::Instr;
    using pram::OpCode;
    auto u32 = [](std::uint64_t v) { return static_cast<std::uint32_t>(v); };
    switch (lane.op) {
      case OpCode::kNop:
        return Instr::nop();
      case OpCode::kConst: {
        const auto z = resolve_ref(lane.z);
        if (!z) return std::nullopt;
        return Instr::constant(u32(*z), lane.imm);
      }
      case OpCode::kRandBelow: {
        const auto z = resolve_ref(lane.z);
        if (!z) return std::nullopt;
        return Instr::rand_below(u32(*z), lane.imm);
      }
      case OpCode::kCoin: {
        const auto z = resolve_ref(lane.z);
        if (!z) return std::nullopt;
        // The immediate is the RAW fixed-point success probability
        // (p * 2^32), not a percentage — this keeps emit/parse lossless.
        if (lane.imm > (std::uint64_t{1} << 32)) {
          error(lane.imm_loc,
                "coin immediate exceeds 2^32 (fixed-point probability)");
          return std::nullopt;
        }
        return pram::Instr{OpCode::kCoin, u32(*z), 0, 0, 0, lane.imm};
      }
      case OpCode::kCopy: {
        const auto z = resolve_ref(lane.z), x = resolve_ref(lane.x);
        if (!z || !x) return std::nullopt;
        return Instr::copy(u32(*z), u32(*x));
      }
      case OpCode::kSelect: {
        const auto z = resolve_ref(lane.z), c = resolve_ref(lane.c),
                   x = resolve_ref(lane.x), y = resolve_ref(lane.y);
        if (!z || !c || !x || !y) return std::nullopt;
        return Instr::select(u32(*z), u32(*c), u32(*x), u32(*y));
      }
      case OpCode::kGather: {
        const auto z = resolve_ref(lane.z), x = resolve_ref(lane.x),
                   y = resolve_ref(lane.y);
        if (!z || !x || !y) return std::nullopt;
        if (lane.imm == 0) {
          error(lane.imm_loc, "gather window length is 0");
          return std::nullopt;
        }
        if (lane.imm > kMaxVarId) {
          error(lane.imm_loc, "gather window length overflows 32 bits");
          return std::nullopt;
        }
        if (*y + lane.imm > nvars_) {
          error(lane.y.loc,
                "gather window [v" + std::to_string(*y) + ", v" +
                    std::to_string(*y + lane.imm) +
                    ") exceeds vars=" + std::to_string(nvars_));
          return std::nullopt;
        }
        return Instr::gather(u32(*z), u32(*x), u32(*y), u32(lane.imm));
      }
      case OpCode::kGatherDyn: {
        const auto z = resolve_ref(lane.z), x = resolve_ref(lane.x),
                   y = resolve_ref(lane.y), c = resolve_ref(lane.c);
        if (!z || !x || !y || !c) return std::nullopt;
        auto it = segs_.find(lane.seg_name);
        if (it == segs_.end()) {
          error(lane.seg_loc,
                "undefined segment '" + std::string(lane.seg_name) + "'");
          return std::nullopt;
        }
        return Instr::gather_dyn(u32(*z), u32(*x), u32(*y), u32(*c),
                                 it->second.base, it->second.len);
      }
      default: {  // two-operand ALU ops
        const auto z = resolve_ref(lane.z), x = resolve_ref(lane.x),
                   y = resolve_ref(lane.y);
        if (!z || !x || !y) return std::nullopt;
        return pram::Instr{lane.op, u32(*z), u32(*x), u32(*y), 0, 0};
      }
    }
  }

  // ---- EREW (source-located mirror of Program::validate_erew) ----------

  /// Check the step whose index is `epoch` - 1: a variable already read
  /// (written) in it has reads_ (writes_) equal to `epoch`.
  void check_erew(const pram::Step& step, std::uint32_t epoch) {
    step_segs_.clear();
    written_.clear();
    for (std::size_t t = 0; t < step.instrs.size(); ++t) {
      const pram::Instr& ins = step.instrs[t];
      const LaneSrc* lane = placed_[t];
      if (lane == nullptr) continue;  // implicit nop
      const int r = pram::reads_of(ins.op);
      if (r >= 1) mark_read(epoch, ins.x, lane->x.loc);
      if (r >= 2 && ins.op != pram::OpCode::kGather)
        mark_read(epoch, ins.y, lane->y.loc);
      if (r >= 3) mark_read(epoch, ins.c, lane->c.loc);
      if (pram::reads_window(ins.op)) {
        // The whole declared window counts as read (the executed index is
        // data-dependent), so overlap with any other read is a conflict.
        for (std::uint32_t v = ins.y; v < ins.y + ins.c; ++v)
          mark_read(epoch, v, lane->y.loc);
      }
      if (pram::reads_dyn_window(ins.op)) {
        const auto seg = std::make_pair(pram::dyn_seg_base(ins),
                                        pram::dyn_seg_len(ins));
        if (std::find(step_segs_.begin(), step_segs_.end(), seg) ==
            step_segs_.end())
          step_segs_.push_back(seg);
      }
      if (pram::writes_dest(ins.op)) {
        if (writes_[ins.z] == epoch) {
          erew_.push_back({lane->z.loc,
                           "EREW violation: variable v" +
                               std::to_string(ins.z) +
                               " written by more than one thread in this "
                               "step"});
        } else {
          writes_[ins.z] = epoch;
        }
        written_.push_back({ins.z, lane});
      }
    }
    // Segment cells must stay frozen while any gather_dyn of this step may
    // read them.
    for (const auto& [base, len] : step_segs_)
      for (const Write& w : written_)
        if (w.var >= base && w.var - base < len)
          erew_.push_back(
              {w.lane->z.loc,
               "variable v" + std::to_string(w.var) +
                   " written inside gather_dyn segment [v" +
                   std::to_string(base) + ", v" +
                   std::to_string(static_cast<std::uint64_t>(base) + len) +
                   ")"});
  }

  void mark_read(std::uint32_t epoch, std::uint32_t var, const Loc& loc) {
    if (reads_[var] == epoch) {
      erew_.push_back({loc, "EREW violation: variable v" +
                                std::to_string(var) +
                                " read by more than one thread in this step"});
      return;
    }
    reads_[var] = epoch;
  }

  std::vector<Diagnostic>& diags_;
  Loc name_loc_;  ///< Where an internal validation failure is reported.
  std::uint64_t procs_ = 0;
  std::uint64_t nvars_ = 0;
  std::unordered_map<std::string_view, VarInfo> names_;
  std::unordered_map<std::string_view, SegInfo> segs_;
  std::optional<Loc> vars_limit_loc_;  ///< Declaration crossing kMaxVars.
  std::vector<pram::Step> steps_;      ///< The lowered program so far.
  // Per step: the lane lowered into each thread (null = implicit nop),
  // the distinct gather_dyn segments, and the writes.
  std::vector<const LaneSrc*> placed_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> step_segs_;
  struct Write {
    std::uint32_t var;
    const LaneSrc* lane;
  };
  std::vector<Write> written_;
  // Across steps: the epoch (step index + 1) of each variable's last read
  // and last write, and the EREW findings so far.
  std::vector<std::uint32_t> reads_, writes_;
  std::vector<Diagnostic> erew_;
};

}  // namespace

CompileResult compile_source(const SourceFile& src) {
  CompileResult result;
  std::vector<Diagnostic> lexical, syntax, semantic;
  std::optional<Analyzer> analyzer;
  auto prepare = [&](const ProgramSrc& decls, std::uint64_t nsteps) {
    analyzer.emplace(semantic);
    if (!analyzer->prepare(decls, nsteps)) analyzer.reset();
  };
  // One pass while nothing can invalidate it: the declarations read when
  // the first step closes are all the file has unless one follows a step,
  // so the analyzer prepares from them and lowers each step as it closes.
  // The slot limit is checked against the '{' count, which no step count
  // exceeds.  The pass is dropped when a declaration follows a step, or at
  // the first error, which a later declaration could make moot; a slot
  // bound past the limit is such an error, though the exact count may fit.
  std::optional<ProgramSrc> decls;
  {
    Lexer lexer(src, lexical);
    decls = parse(lexer, syntax,
                  [&](const ProgramSrc& so_far, const StepSrc& st) {
      if (so_far.nsteps == 1) prepare(so_far, max_steps(src.text));
      if (so_far.decl_after_step || !semantic.empty()) analyzer.reset();
      if (analyzer) analyzer->add_step(st);
    });
    // A lexical error after the first syntax error still wins.
    if (!decls) {
      while (lexer.next().kind != TokKind::kEnd) {
      }
    }
  }
  if (!lexical.empty()) {
    result.diagnostics = std::move(lexical);
    return result;
  }
  if (!decls) {
    result.diagnostics = std::move(syntax);
    return result;
  }
  // Without the one pass (or without a step), the whole file's
  // declarations and step count are known now: prepare from them and
  // lower every step in a second parse, which the file passes cleanly.
  if (!analyzer || !semantic.empty() || decls->decl_after_step) {
    analyzer.reset();
    semantic.clear();
    prepare(*decls, decls->nsteps);
    if (analyzer && decls->nsteps != 0) {
      Lexer lexer(src, lexical);
      parse(lexer, syntax, [&](const ProgramSrc&, const StepSrc& st) {
        analyzer->add_step(st);
      });
    }
  }
  if (analyzer) result.program = analyzer->finish();
  result.diagnostics = std::move(semantic);
  return result;
}

CompileResult compile_file(const std::string& path, SourceFile& out_src) {
  out_src.name = path;
  out_src.text.clear();
  CompileResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.diagnostics.push_back({Loc{}, "cannot open '" + path + "'"});
    return result;
  }
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  bool ok = false;
  if (!ec) {
    // A regular file: one read of its size, so the text is held once.
    out_src.text.resize(static_cast<std::size_t>(size));
    in.read(out_src.text.data(), static_cast<std::streamsize>(size));
    ok = in.gcount() == static_cast<std::streamsize>(size);
  } else if (ec != std::errc::is_a_directory) {
    // A pipe or a device has no size: read it to its end.
    out_src.text.assign(std::istreambuf_iterator<char>(in), {});
    ok = !in.bad();
  }
  if (!ok) {
    out_src.text.clear();
    result.diagnostics.push_back(
        {Loc{}, "cannot read '" + path + "'" +
                    (ec == std::errc::is_a_directory ? ": " + ec.message()
                                                     : std::string())});
    return result;
  }
  return compile_source(out_src);
}

}  // namespace apex::lang
