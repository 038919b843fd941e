"""Full-system assemblies: SCORPIO and the directory baselines."""

from repro.systems.base import BaseSystem
from repro.systems.directory import DirectorySystem
from repro.systems.multimesh import MultiMeshScorpioSystem
from repro.systems.scorpio import ScorpioSystem

__all__ = ["BaseSystem", "DirectorySystem", "MultiMeshScorpioSystem",
           "ScorpioSystem"]
