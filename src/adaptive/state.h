#ifndef AQP_ADAPTIVE_STATE_H_
#define AQP_ADAPTIVE_STATE_H_

#include <array>
#include <cstddef>

#include "join/join_types.h"

namespace aqp {
namespace adaptive {

/// \brief The four query-processor states of Fig. 4.
///
/// A state fixes, per input, how tuples read from that input are
/// matched: `lex` / `rex` probe the opposite exact hash table, `lap` /
/// `rap` probe the opposite q-gram index. The enumerator order matches
/// the paper's weight vectors (§4.3):
/// [lex/rex, lap/rex, lex/rap, lap/rap].
enum class ProcessorState {
  kLexRex = 0,  ///< both inputs matched exactly (start state, "EE")
  kLapRex = 1,  ///< left approximate, right exact ("AE")
  kLexRap = 2,  ///< left exact, right approximate ("EA")
  kLapRap = 3,  ///< both approximate ("AA")
};

/// Number of processor states.
inline constexpr size_t kNumProcessorStates = 4;

/// All states, in enumerator order (for iteration in reports).
inline constexpr std::array<ProcessorState, kNumProcessorStates>
    kAllProcessorStates = {ProcessorState::kLexRex, ProcessorState::kLapRex,
                           ProcessorState::kLexRap, ProcessorState::kLapRap};

/// Dense index of a state.
inline size_t StateIndex(ProcessorState s) { return static_cast<size_t>(s); }

/// Probe mode of tuples read from the left input in state `s`.
join::ProbeMode LeftMode(ProcessorState s);

/// Probe mode of tuples read from the right input in state `s`.
join::ProbeMode RightMode(ProcessorState s);

/// Probe mode of tuples read from `side` in state `s`.
join::ProbeMode ModeOf(ProcessorState s, exec::Side side);

/// State with the given per-side probe modes.
ProcessorState MakeProcessorState(join::ProbeMode left, join::ProbeMode right);

/// Long name: "lex/rex", "lap/rex", "lex/rap", "lap/rap".
const char* ProcessorStateName(ProcessorState s);

/// Two-letter code used in the paper's Fig. 7/8: "EE", "AE", "EA",
/// "AA" (first letter = left mode, A = approximate).
const char* ProcessorStateCode(ProcessorState s);

}  // namespace adaptive
}  // namespace aqp

#endif  // AQP_ADAPTIVE_STATE_H_
