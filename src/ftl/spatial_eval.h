#ifndef MOST_FTL_SPATIAL_EVAL_H_
#define MOST_FTL_SPATIAL_EVAL_H_

#include <functional>
#include <vector>

#include "common/interval.h"
#include "core/class_snapshot.h"
#include "core/object_model.h"
#include "ftl/ast.h"
#include "geometry/kinematics.h"

namespace most {

/// Reusable per-thread scratch for the SoA extraction kernels: solver
/// event times, continuous solution intervals, and accumulated tick
/// intervals. Lives outside the kernels so steady-state extraction makes
/// no heap allocations beyond each object's final IntervalSet.
struct SpatialScratch {
  std::vector<double> events;
  std::vector<RealInterval> reals;
  std::vector<Interval> ticks;
};

/// Ticks in `window` at which the (possibly moving) object is inside the
/// polygon. Solved exactly per jointly-linear motion segment.
IntervalSet InsideTicks(const MostObject& obj, const Polygon& polygon,
                        Interval window);

/// Anchored variant: the polygon's coordinates are relative to the
/// anchor's position, i.e. the region moves as a rigid body with the
/// anchor (the paper's moving circle C). Solved exactly on the relative
/// motion obj(t) - anchor(t).
IntervalSet InsideTicksRelative(const MostObject& obj,
                                const MostObject& anchor,
                                const Polygon& polygon, Interval window);

/// Batch inside-extraction: slot i of the result is InsideTicks(*objs[i])
/// — or InsideTicksRelative(*objs[i], *anchors[i]) when `anchors` is
/// non-empty (it must then be parallel to objs).
std::vector<IntervalSet> InsideTicksBatch(
    const std::vector<const MostObject*>& objs,
    const std::vector<const MostObject*>& anchors, const Polygon& polygon,
    Interval window);

/// Ticks at which DIST(a, b) `op` bound holds. Exact: per pair of aligned
/// motion segments the distance is the square root of a quadratic in t.
IntervalSet DistCmpTicks(const MostObject& a, const MostObject& b,
                         FtlFormula::CmpOp op, double bound, Interval window);

/// SoA counterpart of InsideTicks: solves object `oi` of the snapshot
/// straight from the contiguous coefficient arrays, reusing `scratch`.
/// Produces the same tick set as InsideTicks (bit-equal solver inputs,
/// identical rounding), hence a byte-identical normalized IntervalSet.
IntervalSet SnapshotInsideTicks(const ClassSnapshot& snap, size_t oi,
                                const Polygon& polygon, Interval window,
                                SpatialScratch* scratch);

/// SoA counterpart of DistCmpTicks for objects `ai` of `a_snap` and `bi`
/// of `b_snap`. Unlike the legacy solver it computes only the side(s) of
/// the comparison the operator needs. Byte-identical result for the same
/// reason as SnapshotInsideTicks.
IntervalSet SnapshotDistCmpTicks(const ClassSnapshot& a_snap, size_t ai,
                                 const ClassSnapshot& b_snap, size_t bi,
                                 FtlFormula::CmpOp op, double bound,
                                 Interval window, SpatialScratch* scratch);

/// Aligns the motion segments of several objects on their common tick
/// ranges and calls fn(common_ticks, movers) for each elementary range on
/// which every object's motion is linear. The workhorse behind every
/// multi-object kinematic solver here.
void ForEachAlignedSegment(
    const std::vector<const MostObject*>& objects, Interval window,
    const std::function<void(Interval, const std::vector<MovingPoint2>&)>&
        fn);

/// Ticks at which all objects fit in a circle of radius r (the paper's
/// WITHIN-A-SPHERE relation, planar case).
IntervalSet SphereTicks(const std::vector<const MostObject*>& objects,
                        double radius, Interval window);

}  // namespace most

#endif  // MOST_FTL_SPATIAL_EVAL_H_
